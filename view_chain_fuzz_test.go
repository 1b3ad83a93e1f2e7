package vebo

import (
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphgrind"
)

// chainModel is the flat oracle FuzzViewChain checks views against: the live
// (src, dst, weight) multiset and the internal→external ID table, updated
// update by update exactly as the facade resolves them.
type chainModel struct {
	n     int
	edges []graph.Edge      // live multiset, in no particular order
	exts  []uint64          // internal → external
	index map[uint64]uint32 // external → internal
	fresh uint64            // next never-seen external ID
}

// live returns a copy of the model's edge multiset.
func (m *chainModel) live() []graph.Edge { return append([]graph.Edge(nil), m.edges...) }

// remove deletes a uniformly random live edge from the model and returns the
// deletion that cancels it (weight selector included, so the facade cancels
// an occurrence of exactly that triple).
func (m *chainModel) remove(rng *rand.Rand) (EdgeUpdate, bool) {
	if len(m.edges) == 0 {
		return EdgeUpdate{}, false
	}
	i := rng.Intn(len(m.edges))
	e := m.edges[i]
	m.edges[i] = m.edges[len(m.edges)-1]
	m.edges = m.edges[:len(m.edges)-1]
	return EdgeUpdate{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Del: true}, true
}

// intern mirrors the allocator: an unseen external takes the next dense ID.
func (m *chainModel) intern(ext uint64) VertexID {
	if id, ok := m.index[ext]; ok {
		return VertexID(id)
	}
	m.index[ext] = uint32(m.n)
	m.exts = append(m.exts, ext)
	m.n++
	return VertexID(m.n - 1)
}

// chainView is a retained view plus the oracle state at its epoch.
type chainView struct {
	v     *View
	n     int
	edges []graph.Edge
}

// checkChainView materializes the artifacts selected by mask on v — its
// snapshot (1), relabeled graph (2) and GraphGrind engine (4) — through
// whatever patch path the view's basis allows, and requires each to equal a
// scratch build of the same epoch from the oracle's edge multiset. Where
// the basis holds the artifact (and, for the relabeled ones, the numbering
// lineage is intact), the patch path itself must have run: the patchers
// reject an inexact delta and fall back to scratch, which would otherwise
// hide it.
func checkChainView(t *testing.T, cv chainView, mask byte) {
	t.Helper()
	v, d := cv.v, cv.v.d
	want, err := graph.FromEdges(cv.n, cv.edges, true)
	if err != nil {
		t.Fatal(err)
	}
	b := v.basis.Load()
	intact := b != nil && b.renumEpoch == v.renumEpoch
	// patched runs build and, when the artifact should patch, requires that
	// it did not count a scratch build (a patch path's fallback would).
	patched := func(what string, expect bool, builds func(ViewWork) int64, build func()) {
		before := builds(d.ViewWork())
		build()
		if expect && builds(d.ViewWork()) != before {
			t.Fatalf("epoch %d: %s fell back to a scratch build from basis epoch %d", v.Epoch(), what, b.Epoch())
		}
	}
	graphBuilds := func(w ViewWork) int64 { return w.GraphBuilds }
	if mask&1 != 0 {
		expect := v.snapP.Load() == nil && b != nil && b.snapP.Load() != nil
		patched("snapshot", expect, graphBuilds, func() {
			if s := v.Snapshot(); !graph.Equal(s, want) {
				t.Fatalf("epoch %d: snapshot has %d edges, scratch %d (or differs)", v.Epoch(), s.NumEdges(), want.NumEdges())
			}
		})
	}
	if mask&6 == 0 {
		return
	}
	wantRG, err := core.Apply(want, v.ord)
	if err != nil {
		t.Fatal(err)
	}
	expect := v.rgp.Load() == nil && intact && b.rgp.Load() != nil
	patched("relabeled graph", expect, graphBuilds, func() {
		rg, err := v.Reordered()
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(rg, wantRG) {
			t.Fatalf("epoch %d: relabeled graph differs from scratch (%d vs %d edges)", v.Epoch(), rg.NumEdges(), wantRG.NumEdges())
		}
	})
	if mask&4 == 0 {
		return
	}
	var e Engine
	expect = v.eng[GraphGrind].peek() == nil && intact && b.eng[GraphGrind].peek() != nil
	patched("GraphGrind engine", expect, func(w ViewWork) int64 { return w.EngineBuilds }, func() {
		if e, err = v.Engine(GraphGrind); err != nil {
			t.Fatal(err)
		}
	})
	ref, err := graphgrind.New(wantRG, graphgrind.Config{
		Engine:     engine.Config{Topology: v.opts.topology()},
		Partitions: v.parts, Order: v.cooOrder(), Bounds: v.ord.Boundaries(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gp, rp := e.(*graphgrind.GraphGrind).Partitions(), ref.Partitions()
	if len(gp) != len(rp) {
		t.Fatalf("epoch %d: %d partitions, scratch %d", v.Epoch(), len(gp), len(rp))
	}
	for i := range gp {
		if gp[i] != rp[i] {
			t.Fatalf("epoch %d: partition %d = %+v, scratch %+v", v.Epoch(), i, gp[i], rp[i])
		}
	}
	// SPMV traverses every partition's COO densely; integer inputs keep the
	// float sums exact, so a stale or missing COO entry shows as a mismatch.
	x := make([]float64, wantRG.NumVertices())
	for i := range x {
		x[i] = float64(i%97 + 1)
	}
	ye, yr := algorithms.SPMV(e, x), algorithms.SPMV(ref, x)
	for i := range ye {
		if ye[i] != yr[i] {
			t.Fatalf("epoch %d: patched engine SPMV[%d] = %v, scratch %v", v.Epoch(), i, ye[i], yr[i])
		}
	}
	ce, cr := algorithms.CC(e), algorithms.CC(ref)
	for i := range ce {
		if ce[i] != cr[i] {
			t.Fatalf("epoch %d: patched engine CC[%d] = %d, scratch %d", v.Epoch(), i, ce[i], cr[i])
		}
	}
}

// FuzzViewChain is the oracle for publication by delta chain: random
// sequences of dense ApplyBatch and external-ID IngestBatch calls, forced
// rebuilds, explicit compactions and reader-less floods long enough to trip
// the give-up bound, with readers materializing the snapshot, relabeled
// graph and GraphGrind engine of randomly chosen retained views — older
// ones out of order included. Every artifact must equal a scratch build of
// its epoch, whichever basis it patched from.
//
// Each ops byte is one step: b%6 picks the operation and b/6 its parameter.
// The seed corpus runs as a plain test; its sequences re-anchor across a
// forced rebuild, across an explicit compaction and across a give-up.
func FuzzViewChain(f *testing.F) {
	// Step encoders: a batch of k updates, and a read of the artifacts in
	// mask on the view back steps behind the newest.
	apply := func(k int) byte { return byte(6 * (k - 1)) }
	ingest := func(k int) byte { return byte(1 + 6*(k-1)) }
	const rebuild, compact, flood = 2, 3, 4
	read := func(back, mask int) byte { return byte(5 + 6*(back*7+mask-1)) }
	// Re-anchor across a rebuild (the post-rebuild view patches its
	// snapshot from a pre-rebuild basis, then becomes the basis), then
	// across a compaction, with an out-of-order read of an older view.
	f.Add(uint8(1), []byte{apply(8), read(0, 7), apply(4), rebuild, apply(4), read(0, 7), apply(6),
		compact, apply(6), read(0, 7), read(1, 7), apply(3), read(0, 7)})
	// Growth through external ingest, a flood that trips the give-up
	// bound, then patching resumes on a fresh anchor.
	f.Add(uint8(2), []byte{ingest(6), read(0, 7), ingest(12), apply(8), read(0, 1), flood, apply(2),
		read(0, 7), apply(4), read(1, 4), rebuild, ingest(3), read(0, 7), compact, apply(5), read(0, 7)})
	// Engine-first and snapshot-only readers interleaved with repairs.
	f.Add(uint8(3), []byte{apply(30), apply(30), read(0, 4), apply(30), read(0, 1), apply(30), read(0, 4),
		read(2, 2), apply(30), ingest(4), read(0, 7), rebuild, apply(1), read(1, 7), read(0, 7)})
	f.Fuzz(func(t *testing.T, seed uint8, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		const n0 = 300
		m := &chainModel{n: n0, index: make(map[uint64]uint32), fresh: 1 << 32}
		for i := 0; i < 1200; i++ {
			m.edges = append(m.edges, graph.Edge{Src: VertexID(rng.Intn(n0)), Dst: VertexID(rng.Intn(n0)), Weight: int32(1 + rng.Intn(3))})
		}
		for i := 0; i < n0; i++ {
			m.exts = append(m.exts, uint64(i))
			m.index[uint64(i)] = uint32(i)
		}
		g, err := graph.FromEdges(n0, m.edges, true)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDynamic(g, DynamicOptions{
			Partitions: 8, CompactEvery: 400, MinHeadroom: 1, HeadroomFrac: -1,
			Engine: EngineOptions{Sockets: 2, ThreadsPerSocket: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		views := []chainView{{v: d.View(), n: m.n, edges: m.live()}}
		retain := func() {
			views = append(views, chainView{v: d.View(), n: m.n, edges: m.live()})
			if len(views) > 8 {
				i := rng.Intn(len(views) - 1) // never the newest
				views = append(views[:i], views[i+1:]...)
			}
		}
		// batch draws k dense updates: deletions of live triples (with
		// their weight selector) or insertions among existing vertices.
		batch := func(k int) []EdgeUpdate {
			var ups []EdgeUpdate
			for i := 0; i < k; i++ {
				if rng.Intn(3) == 0 {
					if u, ok := m.remove(rng); ok {
						ups = append(ups, u)
						continue
					}
				}
				u := EdgeUpdate{Src: VertexID(rng.Intn(m.n)), Dst: VertexID(rng.Intn(m.n)), Weight: int32(1 + rng.Intn(3))}
				m.edges = append(m.edges, graph.Edge{Src: u.Src, Dst: u.Dst, Weight: u.Weight})
				ups = append(ups, u)
			}
			return ups
		}
		for _, b := range ops {
			op, arg := b%6, int(b/6)
			switch op {
			case 0: // dense batch
				if _, err := d.ApplyBatch(batch(1 + arg)); err != nil {
					t.Fatal(err)
				}
				retain()
			case 1: // external-ID batch admitting fresh vertices
				var ups []ExternalEdgeUpdate
				for i := 0; i <= arg; i++ {
					src := m.exts[rng.Intn(m.n)]
					if rng.Intn(2) == 0 {
						src, m.fresh = m.fresh, m.fresh+1
					}
					dst := m.exts[rng.Intn(m.n)]
					w := int32(1 + rng.Intn(3))
					m.edges = append(m.edges, graph.Edge{Src: m.intern(src), Dst: m.intern(dst), Weight: w})
					ups = append(ups, ExternalEdgeUpdate{Src: src, Dst: dst, Weight: w})
				}
				if _, err := d.IngestBatch(ups); err != nil {
					t.Fatal(err)
				}
				retain()
			case 2: // forced rebuild, published by the next batch
				d.inner.Rebuild()
			case 3: // explicit compaction
				d.Compact()
			case 4: // reader-less flood: insert then delete fresh edges
				// until the retained chain outgrows the give-up bound.
				for r := 0; r < 4; r++ {
					var ins, del []EdgeUpdate
					for i := 0; i < 1500; i++ {
						u := EdgeUpdate{Src: VertexID(rng.Intn(m.n)), Dst: VertexID(rng.Intn(m.n)), Weight: int32(4 + i)}
						ins = append(ins, u)
						u.Del = true
						del = append(del, u)
					}
					for _, ups := range [][]EdgeUpdate{ins, del} {
						if _, err := d.ApplyBatch(ups); err != nil {
							t.Fatal(err)
						}
					}
				}
				retain()
			case 5: // reader: artifacts arg%7+1 of view arg/7 back from the newest
				i := len(views) - 1 - (arg/7)%len(views)
				checkChainView(t, views[i], byte(arg%7+1))
			}
		}
		checkChainView(t, views[len(views)-1], 7)
	})
}
