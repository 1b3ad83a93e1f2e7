package main

import (
	"fmt"
	"time"

	vebo "repro"
	"repro/internal/obs"
)

// Sizes of the two ingest workloads. A run replays one fixed-length stream
// per pass on a fresh Dynamic and repeats passes until the measuring time
// is up, so per-batch costs that grow with history are always sampled
// over the same history, however fast the program is.
const (
	ingestBatch = 256
	// inputInstances is the number of input instances a run derives from
	// its seed; pass k replays instance k mod inputInstances, so a run's
	// medians span several inputs and depend less on any one of them.
	inputInstances = 4

	churnRecipe = "twitter"
	churnScale  = 0.05
	churnOps    = 80 * ingestBatch

	serveRecipe   = "powerlaw"
	serveScale    = 0.05
	serveOps      = 32 * ingestBatch
	serveGrowFrac = 0.05
	// serveCheckEvery is the epoch interval of the serve-standing answer
	// check; the last epoch of every pass is checked too.
	serveCheckEvery = 8
)

// Tail percentiles of the ingest series, each the highest of p75, p90, p95
// and p99 with at least ten samples beyond it in a 20-second run at half
// the measured speed. At full speed ingest-churn makes about 90 passes of
// 80 batches and one final read each, serve-standing about 9 passes of 32
// epochs of four queries.
const (
	churnPublishTail = 0.99
	churnReadTail    = 0.75
	servePublishTail = 0.90
	serveFreshTail   = 0.90
	serveQueryTail   = 0.95
)

// dynOpts configures every Dynamic the ingest workloads build: default
// maintenance, engines on the same two-socket machine as static-rmat.
var dynOpts = vebo.DynamicOptions{Engine: engineOpts}

// edgeKey is one edge of a multiset comparison; w is 0 on unweighted
// graphs.
type edgeKey struct {
	s, d vebo.VertexID
	w    int32
}

// replay applies a stream to g's edge multiset, the churn check's oracle.
func replay(g *vebo.Graph, ups []vebo.EdgeUpdate) map[edgeKey]int {
	weighted := g.Weighted()
	key := func(s, d vebo.VertexID, w int32) edgeKey {
		if !weighted {
			w = 0
		} else if w == 0 {
			w = 1
		}
		return edgeKey{s, d, w}
	}
	m := make(map[edgeKey]int)
	for _, e := range g.Edges() {
		m[key(e.Src, e.Dst, e.Weight)]++
	}
	for _, u := range ups {
		k := key(u.Src, u.Dst, u.Weight)
		if u.Del {
			if m[k]--; m[k] == 0 {
				delete(m, k)
			}
		} else {
			m[k]++
		}
	}
	return m
}

// sameMultiset reports whether snap's edges are exactly want.
func sameMultiset(snap *vebo.Graph, want map[edgeKey]int) string {
	got := replay(snap, nil)
	if len(got) != len(want) {
		return fmt.Sprintf("%d distinct edges, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			return fmt.Sprintf("edge (%d,%d,w=%d) x%d, want x%d", k.s, k.d, k.w, got[k], c)
		}
	}
	return ""
}

// batchSplit divides one ApplyBatch/IngestBatch call by the spans the
// program recorded during it: the batch span's self time (apply), the
// maintenance spans (repair, rebuild, resort, compact, grow, spill), the
// publish span, and whatever no span covers.
type batchSplit struct {
	apply, maintain, publish, unattributed time.Duration
	backlog                                int64
}

func attributeBatch(spans []obs.Span, from time.Time, wall time.Duration) batchSplit {
	to := from.Add(wall)
	var st batchSplit
	var batch *obs.Span
	var maint []obs.Span
	for i := range spans {
		sp := &spans[i]
		if sp.Start.Before(from) || sp.Start.After(to) {
			continue
		}
		switch sp.Kind {
		case "ingest":
			batch = sp
		case "maintain":
			maint = append(maint, *sp)
		case "publish":
			st.publish += sp.Dur
			st.backlog = sp.Attrs["delta_backlog"]
		}
	}
	var inside, outside time.Duration
	for _, m := range maint {
		st.maintain += m.Dur
		if batch != nil && !m.Start.Before(batch.Start) && !m.Start.Add(m.Dur).After(batch.Start.Add(batch.Dur)) {
			inside += m.Dur
		} else {
			outside += m.Dur
		}
	}
	var batchDur time.Duration
	if batch != nil {
		batchDur = batch.Dur
		st.apply = batch.Dur - inside
	}
	st.unattributed = wall - batchDur - st.publish - outside
	return st
}

// ingestLayers accumulates the traced ingest batches' split by position.
type ingestLayers struct {
	nb                                     int
	apply, maintain, publish, unattributed []float64
	publishLast                            []float64
	backlog                                int64
}

func (l *ingestLayers) add(pos int, st batchSplit) {
	l.apply = append(l.apply, ms(st.apply))
	l.maintain = append(l.maintain, ms(st.maintain))
	l.publish = append(l.publish, ms(st.publish))
	l.unattributed = append(l.unattributed, ms(st.unattributed))
	if pos >= l.nb-l.nb/10 {
		l.publishLast = append(l.publishLast, ms(st.publish))
	}
	if st.backlog > l.backlog {
		l.backlog = st.backlog
	}
}

func (l *ingestLayers) set(rep *report) {
	rep.set("dynamic.apply_self_ms.p50", "ms", quantile(l.apply, 0.5))
	var sum float64
	for _, x := range l.maintain {
		sum += x
	}
	if len(l.maintain) > 0 {
		rep.set("dynamic.maintain_ms.mean", "ms", sum/float64(len(l.maintain)))
	}
	rep.set("ingest.unattributed_ms.p50", "ms", quantile(l.unattributed, 0.5))
	rep.set("publish.self_ms.p50", "ms", quantile(l.publish, 0.5))
	rep.set("publish.self_ms.last_decile_p50", "ms", quantile(l.publishLast, 0.5))
	rep.set("publish.delta_backlog", "count", float64(l.backlog))
}

// byPosition collects a per-batch series keyed by the batch's position in
// its pass, pooled over passes, so the first and last tenth of the stream
// can be compared.
type byPosition struct {
	nb          int
	all         []float64
	first, last []float64
}

func (p *byPosition) add(pos int, x float64) {
	p.all = append(p.all, x)
	k := p.nb / 10
	if pos < k {
		p.first = append(p.first, x)
	}
	if pos >= p.nb-k {
		p.last = append(p.last, x)
	}
}

// viewCounts names the view-layer work counters the benchmark reports.
func viewCounts(w vebo.ViewWork) map[string]int64 {
	return map[string]int64{
		"graph.patches":             w.GraphPatches,
		"graph.builds":              w.GraphBuilds,
		"graph.edges_patched":       w.PatchedEdges,
		"graph.edges_relabeled":     w.RelabeledEdges,
		"graph.edges_reused":        w.ReusedEdges,
		"engine.builds":             w.EngineBuilds,
		"engine.patches":            w.EnginePatches,
		"engine.partitions_rebuilt": w.PartitionsRebuilt,
		"engine.partitions_reused":  w.PartitionsReused,
	}
}

// setCounts records the work counters of the last pass; every pass
// replays the same stream, so they repeat exactly.
func setCounts(rep *report, st vebo.DynamicStats, view map[string]int64) {
	for name, v := range map[string]int64{
		"dynamic.repairs":         st.Repairs,
		"dynamic.swaps":           st.Swaps,
		"dynamic.rotations":       st.Rotations,
		"dynamic.rebuilds":        st.FullRebuilds,
		"dynamic.resorts":         st.Resorts,
		"dynamic.compactions":     st.Compactions,
		"dynamic.admitted":        st.Admitted,
		"dynamic.headroom_spills": st.HeadroomSpills,
	} {
		rep.set(name, "count", float64(v))
	}
	for name, v := range view {
		rep.set(name, "count", float64(v))
	}
}

// inputSeed derives the seed of a run's i-th input instance: instances of
// different run seeds never coincide.
func inputSeed(seed int64, i int) int64 { return seed*inputInstances + int64(i) }

// ingestRecord notes an ingest workload's shape in the run record.
func ingestRecord(rep *report, recipe string, scale float64, ops int) {
	rep.noteShape(recipe, scale)
	rep.record["updates_per_pass"] = ops
	rep.record["batch"] = ingestBatch
}

// churnInput is one ingest-churn input instance and its replay oracle.
type churnInput struct {
	g    *vebo.Graph
	ups  []vebo.EdgeUpdate
	want map[edgeKey]int
}

func runChurn(cfg config, rep *report) error {
	ingestRecord(rep, churnRecipe, churnScale, churnOps)
	var inputs []churnInput
	for i := 0; i < inputInstances; i++ {
		g, ups, err := vebo.GenerateStream(churnRecipe, churnScale, churnOps, inputSeed(cfg.seed, i))
		if err != nil {
			return err
		}
		rep.noteInput(g)
		inputs = append(inputs, churnInput{g, ups, replay(g, ups)})
	}
	nb := (churnOps + ingestBatch - 1) / ingestBatch

	pubs := &byPosition{nb: nb}
	layers := &ingestLayers{nb: nb}
	var setups, reads, fresh, tracedPub, plainPub []float64
	var inCalls time.Duration
	var updates int64
	balance := make([]imbalance, inputInstances)
	rep.timedPhase()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		in := inputs[pass%inputInstances]
		rep.sampleHeap()
		psp := rep.root("pass", "bench")
		t := time.Now()
		sp := rep.start("NewDynamic", "dynamic", psp)
		d, err := vebo.NewDynamic(in.g, dynOpts)
		sp.End()
		setups = append(setups, time.Since(t).Seconds())
		rep.op(err)
		if err != nil {
			return err
		}
		var lastPub float64
		for b := 0; b < nb; b++ {
			batch := in.ups[b*ingestBatch : min((b+1)*ingestBatch, len(in.ups))]
			traced := cfg.trace && b%2 == 0
			var sp *obs.ActiveSpan
			if traced {
				sp = rep.start("ApplyBatch", "dynamic", psp)
			}
			bt := time.Now()
			_, err := d.ApplyBatch(batch)
			dur := time.Since(bt)
			sp.End()
			rep.op(err)
			inCalls += dur
			lastPub = ms(dur)
			pubs.add(b, lastPub)
			if traced {
				layers.add(b, attributeBatch(d.Spans().Snapshot(), bt, dur))
				tracedPub = append(tracedPub, lastPub)
			} else {
				plainPub = append(plainPub, lastPub)
			}
			rep.sampleHeap()
		}
		updates += int64(len(in.ups))

		// The first reader after the writer-only stretch materializes the
		// final epoch.
		t = time.Now()
		sp = rep.start("View.Snapshot", "graph", psp)
		snap := d.View().Snapshot()
		sp.End()
		read := ms(time.Since(t))
		rep.op(nil)
		reads = append(reads, read)
		fresh = append(fresh, lastPub+read)
		psp.End()
		rep.sampleHeap()
		if msg := sameMultiset(snap, in.want); msg != "" {
			rep.wrongAnswer("ingest-churn pass %d: final snapshot differs from replay: %s", pass, msg)
		}
		balance[pass%inputInstances] = finalBalance(d)
		if pass == 0 {
			setCounts(rep, d.Stats(), viewCounts(d.ViewWork()))
			rep.set("obs.spans_dropped", "count", float64(d.Spans().Dropped()))
		}
	}
	rep.record["passes"] = len(setups)

	rep.set("setup_s", "s", quantile(setups, 0.5))
	rep.set("updates_per_s", "1/s", float64(updates)/inCalls.Seconds())
	rep.setSeries("publish", pubs.all, churnPublishTail)
	rep.setSeries("query", reads, churnReadTail)
	rep.setSeries("fresh_answer", fresh, churnReadTail)
	rep.setImbalance(balance)

	rep.set("dynamic.batch_p50_ms.first_decile", "ms", quantile(pubs.first, 0.5))
	rep.set("dynamic.batch_p50_ms.last_decile", "ms", quantile(pubs.last, 0.5))
	if cfg.trace {
		layers.set(rep)
	}
	rep.overhead(tracedPub, plainPub)
	rep.setCommon()
	return nil
}

// finalBalance reads the balance of a Dynamic's ordering in force now.
func finalBalance(d *vebo.Dynamic) imbalance {
	de, dv := d.Imbalance()
	v := d.View()
	return imbalance{de, dv, v.NumEdges(), int64(v.NumVertices()), len(v.Ordering().Boundaries()) - 1}
}
