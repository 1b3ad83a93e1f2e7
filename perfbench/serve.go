package main

import (
	"fmt"
	"time"

	vebo "repro"
	"repro/internal/algorithms"
	"repro/internal/obs"
)

// Vertices that arrive during the serve-standing stream get sparse
// external IDs; the base graph's vertices keep their dense IDs.
const (
	extBase   = 1 << 40
	extStride = 7919
)

func extID(id vebo.VertexID, n0 int) uint64 {
	if int(id) < n0 {
		return uint64(id)
	}
	return extBase + uint64(id)*extStride
}

// resolve maps an external ID through v; before the first IngestBatch a
// view has no external table and IDs are the dense ones.
func resolve(v *vebo.View, ext uint64) (vebo.VertexID, bool) {
	if v.ExternalIDs() == nil {
		return vebo.VertexID(ext), ext < uint64(v.NumVertices())
	}
	return v.Resolve(ext)
}

// standing holds one epoch's four standing answers.
type standing struct {
	bfs  []int32
	cc   []uint32
	sssp []int64
	pr   []float64
}

// server is the serve-standing client: one goroutine that ingests a batch
// and then refreshes the standing queries on the new view.
type server struct {
	rep     *report
	rootExt uint64

	calls        []float64 // every timed Refine call
	epochMeans   []float64 // per epoch: the mean of its four Refine calls
	perAlg       map[string][]float64
	graphPatch   []float64
	graphBuild   []float64
	enginePatch  []float64
	engineBuild  []float64
	paths        map[string]int64 // this pass's refine answer paths
	reset, front int64
}

// timed runs one call under a benchmark span and returns its duration.
func (s *server) timed(name, kind string, parent *obs.ActiveSpan, f func() error) (time.Duration, error) {
	sp := s.rep.start(name, kind, parent)
	t := time.Now()
	err := f()
	d := time.Since(t)
	sp.End()
	return d, err
}

// refresh answers the four standing queries on v under GraphGrind and,
// unless cold (the set-up round), adds their latencies to the query series. A
// traced refresh first materializes the relabeled graph and the engine
// through their own public calls, so the graph patch, the engine patch
// and the refine kernels are timed apart; an untraced refresh leaves
// those lazy builds to the first query, which does the same work.
func (s *server) refresh(d *vebo.Dynamic, v *vebo.View, traced, cold bool, parent *obs.ActiveSpan) (standing, error) {
	var ans standing
	root, ok := resolve(v, s.rootExt)
	if !ok {
		return ans, fmt.Errorf("epoch %d: root %d does not resolve", v.Epoch(), s.rootExt)
	}
	if traced {
		w0 := d.ViewWork()
		dur, err := s.timed("View.Reordered", "graph", parent, func() error { _, err := v.Reordered(); return err })
		if err != nil {
			return ans, err
		}
		if w1 := d.ViewWork(); w1.GraphBuilds > w0.GraphBuilds {
			s.graphBuild = append(s.graphBuild, ms(dur))
		} else if w1.GraphPatches > w0.GraphPatches {
			s.graphPatch = append(s.graphPatch, ms(dur))
		}
		w0 = d.ViewWork()
		dur, err = s.timed("View.Engine", "engine", parent, func() error { _, err := v.Engine(vebo.GraphGrind); return err })
		if err != nil {
			return ans, err
		}
		if w1 := d.ViewWork(); w1.EngineBuilds > w0.EngineBuilds {
			s.engineBuild = append(s.engineBuild, ms(dur))
		} else if w1.EnginePatches > w0.EnginePatches {
			s.enginePatch = append(s.enginePatch, ms(dur))
		}
	}
	gg := vebo.GraphGrind
	var sum float64
	for _, a := range refAlgs {
		var st vebo.RefineStats
		dur, err := s.timed("Refine:"+a, "refine", parent, func() (err error) {
			switch a {
			case "bfs":
				ans.bfs, st, err = v.RefineBFS(gg, root)
			case "cc":
				ans.cc, st, err = v.RefineCC(gg)
			case "sssp":
				ans.sssp, st, err = v.RefineSSSP(gg, root)
			case "pagerank":
				ans.pr, st, err = v.RefinePageRank(gg, 0)
			}
			return err
		})
		s.rep.op(err)
		if err != nil {
			return ans, err
		}
		s.paths["refine.path."+a+"."+st.Path]++
		s.reset += int64(st.ResetVertices)
		s.front += int64(st.FrontierVertices)
		if !cold {
			s.calls = append(s.calls, ms(dur))
			s.perAlg[a] = append(s.perAlg[a], ms(dur))
			sum += ms(dur)
		}
	}
	if !cold {
		s.epochMeans = append(s.epochMeans, sum/float64(len(refAlgs)))
	}
	return ans, nil
}

// prCheckIters is the iteration count of the reference PageRank the
// refined ranks are compared with: 0.85^200 is far below the tolerance.
const (
	prCheckIters = 200
	prCheckTol   = 1e-5
)

// check compares one epoch's answers with the sequential references on
// the view's snapshot, with the root mapped through View.Resolve, and
// checks that every external ID admitted so far round-trips.
func (s *server) check(v *vebo.View, ans standing, exts []uint64) {
	snap := v.Snapshot()
	root, ok := resolve(v, s.rootExt)
	if !ok {
		s.rep.wrongAnswer("epoch %d: root does not resolve", v.Epoch())
		return
	}
	for _, c := range []struct {
		alg string
		msg string
	}{
		{"bfs", compare(ans.bfs, algorithms.RefBFSDepths(snap, root), 0)},
		{"cc", compare(ans.cc, algorithms.RefCC(snap), 0)},
		{"sssp", compare(ans.sssp, algorithms.RefSSSP(snap, root), 0)},
		{"pagerank", compare(ans.pr, algorithms.RefPageRank(snap, prCheckIters), prCheckTol)},
	} {
		if c.msg != "" {
			s.rep.wrongAnswer("serve-standing epoch %d: Refine %s: %s", v.Epoch(), c.alg, c.msg)
		}
	}
	for _, ext := range exts {
		id, ok := v.Resolve(ext)
		if back, ok2 := v.External(id); !ok || !ok2 || back != ext {
			s.rep.wrongAnswer("serve-standing epoch %d: external ID %d does not round-trip", v.Epoch(), ext)
			return
		}
	}
}

// serveInput is one serve-standing input instance: the base graph, the
// stream under external IDs, the external IDs first mentioned in each
// batch, and the standing queries' root.
type serveInput struct {
	g        *vebo.Graph
	xups     []vebo.ExternalEdgeUpdate
	arrivals [][]uint64
	rootExt  uint64
}

func newServeInput(seed int64, rep *report) (serveInput, error) {
	g, ups, err := vebo.GenerateStreamOpts(serveRecipe, serveScale, serveOps, seed,
		vebo.StreamOptions{GrowFrac: serveGrowFrac})
	if err != nil {
		return serveInput{}, err
	}
	rep.noteInput(g)
	in := serveInput{g: g, rootExt: uint64(maxOutDegree(g))}
	n0 := g.NumVertices()
	in.xups = make([]vebo.ExternalEdgeUpdate, len(ups))
	seen := make(map[uint64]bool)
	for i, u := range ups {
		x := vebo.ExternalEdgeUpdate{Time: u.Time, Src: extID(u.Src, n0), Dst: extID(u.Dst, n0), Weight: u.Weight, Del: u.Del}
		in.xups[i] = x
		if i%ingestBatch == 0 {
			in.arrivals = append(in.arrivals, nil)
		}
		for _, id := range []uint64{x.Src, x.Dst} {
			if id >= extBase && !seen[id] {
				seen[id] = true
				in.arrivals[len(in.arrivals)-1] = append(in.arrivals[len(in.arrivals)-1], id)
			}
		}
	}
	return in, nil
}

func runServe(cfg config, rep *report) error {
	ingestRecord(rep, serveRecipe, serveScale, serveOps)
	var inputs []serveInput
	for i := 0; i < inputInstances; i++ {
		in, err := newServeInput(inputSeed(cfg.seed, i), rep)
		if err != nil {
			return err
		}
		inputs = append(inputs, in)
	}
	rep.record["grow_frac"] = serveGrowFrac
	nb := len(inputs[0].arrivals)
	s := &server{rep: rep, perAlg: make(map[string][]float64)}

	pubs := &byPosition{nb: nb}
	layers := &ingestLayers{nb: nb}
	var setups, fresh, tracedFresh, plainFresh []float64
	var loopWall time.Duration
	var updates int64
	balance := make([]imbalance, inputInstances)
	rep.timedPhase()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		in := inputs[pass%inputInstances]
		s.rootExt = in.rootExt
		s.paths = make(map[string]int64)
		s.reset, s.front = 0, 0
		checkWork := make(map[string]int64)
		rep.sampleHeap()
		psp := rep.root("pass", "bench")

		// Set-up: a fresh Dynamic and the first, cold standing round.
		t := time.Now()
		var d *vebo.Dynamic
		_, err := s.timed("NewDynamic", "dynamic", psp, func() (err error) {
			d, err = vebo.NewDynamic(in.g, dynOpts)
			return err
		})
		rep.op(err)
		if err != nil {
			return err
		}
		if _, err := s.refresh(d, d.View(), cfg.trace, true, psp); err != nil {
			return fmt.Errorf("cold standing round: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		rep.sampleHeap()

		var admitted []uint64
		for b := 0; b < nb; b++ {
			traced := cfg.trace && b%2 == 0
			var esp *obs.ActiveSpan
			if traced {
				esp = rep.start("epoch", "bench", psp)
			}
			batch := in.xups[b*ingestBatch : min((b+1)*ingestBatch, len(in.xups))]
			t0 := time.Now()
			dur, err := s.timed("IngestBatch", "dynamic", esp, func() error { _, err := d.IngestBatch(batch); return err })
			rep.op(err)
			if err != nil {
				return err
			}
			v := d.View()
			ans, err := s.refresh(d, v, traced, false, esp)
			if err != nil {
				return err
			}
			epoch := time.Since(t0)
			esp.End()
			loopWall += epoch
			pubs.add(b, ms(dur))
			fresh = append(fresh, ms(epoch))
			if traced {
				layers.add(b, attributeBatch(d.Spans().Snapshot(), t0, dur))
				tracedFresh = append(tracedFresh, ms(epoch))
			} else {
				plainFresh = append(plainFresh, ms(epoch))
			}
			rep.sampleHeap()

			admitted = append(admitted, in.arrivals[b]...)
			if b%serveCheckEvery == serveCheckEvery-1 || b == nb-1 {
				before := viewCounts(d.ViewWork())
				s.check(v, ans, admitted)
				for k, c := range viewCounts(d.ViewWork()) {
					checkWork[k] += c - before[k]
				}
			}
		}
		psp.End()
		updates += int64(len(in.xups))
		balance[pass%inputInstances] = finalBalance(d)
		if pass == 0 {
			// Counters of the first pass, less the work the untimed
			// answer checks caused.
			counts := viewCounts(d.ViewWork())
			for k, c := range checkWork {
				counts[k] -= c
			}
			setCounts(rep, d.Stats(), counts)
			for k, c := range s.paths {
				rep.set(k, "count", float64(c))
			}
			rep.set("refine.reset_vertices", "count", float64(s.reset))
			rep.set("refine.frontier_vertices", "count", float64(s.front))
			rep.set("obs.spans_dropped", "count", float64(d.Spans().Dropped()))
		}
	}
	rep.record["passes"] = len(setups)

	rep.set("setup_s", "s", quantile(setups, 0.5))
	rep.set("updates_per_s", "1/s", float64(updates)/loopWall.Seconds())
	rep.setSeries("publish", pubs.all, servePublishTail)
	rep.setSeries("fresh_answer", fresh, serveFreshTail)
	rep.setQuery(s.epochMeans, s.calls, serveQueryTail)
	rep.setImbalance(balance)

	rep.set("dynamic.batch_p50_ms.first_decile", "ms", quantile(pubs.first, 0.5))
	rep.set("dynamic.batch_p50_ms.last_decile", "ms", quantile(pubs.last, 0.5))
	if cfg.trace {
		layers.set(rep)
	}
	for _, a := range refAlgs {
		rep.set("refine."+a+"_ms", "ms", quantile(s.perAlg[a], 0.5))
	}
	rep.set("graph.patch_ms.p50", "ms", quantile(s.graphPatch, 0.5))
	rep.set("graph.patch_ms.tail", "ms", quantile(s.graphPatch, serveFreshTail))
	rep.set("graph.build_ms", "ms", quantile(s.graphBuild, 0.5))
	rep.set("engine.patch_ms.graphgrind.p50", "ms", quantile(s.enginePatch, 0.5))
	rep.set("engine.patch_ms.graphgrind.tail", "ms", quantile(s.enginePatch, serveFreshTail))
	rep.set("engine.build_ms.graphgrind", "ms", quantile(s.engineBuild, 0.5))
	rep.overhead(tracedFresh, plainFresh)
	rep.setCommon()
	return nil
}
