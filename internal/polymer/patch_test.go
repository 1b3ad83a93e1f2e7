package polymer

import (
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// veboFixture returns a VEBO-ordered copy of the test graph, its socket
// boundaries, and the Polymer engine over it.
func veboFixture(t *testing.T) (*graph.Graph, []int64, *Polymer) {
	t.Helper()
	g := testGraph(t)
	r, err := core.Reorder(g, top.Sockets, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := core.Apply(g, r)
	if err != nil {
		t.Fatal(err)
	}
	return rg, r.Boundaries(), newEngine(t, rg, r.Boundaries())
}

func newEngine(t *testing.T, g *graph.Graph, bounds []int64) *Polymer {
	t.Helper()
	p, err := New(g, Config{Engine: engine.Config{Topology: top}, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// swapPerm returns the identity on [0, n) with a and b exchanged.
func swapPerm(n int, a, b graph.VertexID) []graph.VertexID {
	perm := make([]graph.VertexID, n)
	for i := range perm {
		perm[i] = graph.VertexID(i)
	}
	perm[a], perm[b] = b, a
	return perm
}

// unitsOf returns p's thread sub-ranges starting inside [lo, hi).
func unitsOf(p *Polymer, lo, hi graph.VertexID) []engine.Range {
	var out []engine.Range
	for _, u := range p.units {
		if u.Lo >= lo && u.Lo < hi {
			out = append(out, u)
		}
	}
	return out
}

// checkAgainstScratch compares a patched engine with a scratch build over
// the same graph: partitions, thread sub-ranges, and exact SPMV and CC
// (SPMV's inputs are small integers, so its float sums are exact).
func checkAgainstScratch(t *testing.T, got *Polymer, bounds []int64) {
	t.Helper()
	want := newEngine(t, got.Graph(), bounds)
	if !reflect.DeepEqual(got.Partitions(), want.Partitions()) {
		t.Fatal("patched partitions differ from a scratch build")
	}
	if !reflect.DeepEqual(got.units, want.units) {
		t.Fatal("patched thread sub-ranges differ from a scratch build")
	}
	x := make([]float64, got.Graph().NumVertices())
	for i := range x {
		x[i] = float64(i%5 + 1)
	}
	if !reflect.DeepEqual(algorithms.SPMV(got, x), algorithms.SPMV(want, x)) {
		t.Fatal("SPMV differs from a scratch build")
	}
	if !reflect.DeepEqual(algorithms.CC(got), algorithms.CC(want)) {
		t.Fatal("CC differs from a scratch build")
	}
}

// TestPatchAcrossSwap patches across the epoch shape placement-preserving
// repair produces — two vertices on different sockets exchange IDs and a
// third socket gains an in-edge — and checks the result against a scratch
// build, with the one untouched socket reusing its sub-ranges.
func TestPatchAcrossSwap(t *testing.T) {
	rg, bounds, base := veboFixture(t)
	parts := base.Partitions()
	a, b := parts[0].Lo, parts[2].Lo
	perm := swapPerm(rg.NumVertices(), a, b)
	adds := []graph.Edge{{Src: a + 1, Dst: parts[3].Lo, Weight: 1}}
	ng, _, err := rg.PatchEdgesPerm(adds, nil, perm)
	if err != nil {
		t.Fatal(err)
	}
	dirty := func(lo, hi graph.VertexID) bool {
		for _, id := range []graph.VertexID{a, b, parts[3].Lo} {
			if id >= lo && id < hi {
				return true
			}
		}
		return false
	}
	got, st, err := base.Patch(ng, perm, dirty)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstScratch(t, got, bounds)
	if st.PartsRebuilt != 3 || st.PartsReused != 1 {
		t.Fatalf("patch split %+v, want 3 rebuilt and 1 reused", st)
	}
	if clean := parts[1]; !reflect.DeepEqual(unitsOf(got, clean.Lo, clean.Hi), unitsOf(base, clean.Lo, clean.Hi)) {
		t.Fatal("clean socket did not reuse its sub-ranges")
	}
}

// TestPatchRejectsVertexCountChange checks that a graph whose vertex space
// differs from the engine's cannot be patched: boundaries and slot count
// are fixed within a numbering lineage.
func TestPatchRejectsVertexCountChange(t *testing.T) {
	rg, _, base := veboFixture(t)
	grown, _, err := rg.PatchEdgesN(rg.NumVertices()+1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := base.Patch(grown, nil, func(lo, hi graph.VertexID) bool { return false }); err == nil {
		t.Fatal("patch across a vertex-count change accepted")
	}
}

// TestPatchRebuildsMovedDestination swaps two vertices inside one socket
// while the caller claims every socket clean: the identity scan must catch
// the move and rebuild that socket.
func TestPatchRebuildsMovedDestination(t *testing.T) {
	rg, bounds, base := veboFixture(t)
	pt := base.Partitions()[1]
	perm := swapPerm(rg.NumVertices(), pt.Lo, pt.Hi-1)
	ng, _, err := rg.PatchEdgesPerm(nil, nil, perm)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := base.Patch(ng, perm, func(lo, hi graph.VertexID) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if st.PartsRebuilt != 1 {
		t.Fatalf("PartsRebuilt = %d, want 1 (the socket with the moved vertices)", st.PartsRebuilt)
	}
	checkAgainstScratch(t, got, bounds)
}
