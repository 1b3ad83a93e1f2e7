package graphgrind

import (
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layout"
)

// veboFixture returns a VEBO-ordered copy of the test graph and the
// GraphGrind engine over it, partitioned on VEBO's boundaries.
func veboFixture(t *testing.T, parts int) (*graph.Graph, []int64, *GraphGrind) {
	t.Helper()
	g := testGraph(t)
	r, err := core.Reorder(g, parts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := core.Apply(g, r)
	if err != nil {
		t.Fatal(err)
	}
	return rg, r.Boundaries(), newEngine(t, rg, parts, layout.CSROrder, r.Boundaries())
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

// inAny reports whether [lo, hi) contains any of ids.
func inAny(ids []graph.VertexID) func(lo, hi graph.VertexID) bool {
	return func(lo, hi graph.VertexID) bool {
		for _, id := range ids {
			if id >= lo && id < hi {
				return true
			}
		}
		return false
	}
}

// sameResults checks SPMV and CC agree exactly between two engines. SPMV's
// inputs are small integers, so its float sums are exact in any order.
func sameResults(t *testing.T, got, want *GraphGrind) {
	t.Helper()
	x := make([]float64, want.Graph().NumVertices())
	for i := range x {
		x[i] = float64(i%7 + 1)
	}
	if !reflect.DeepEqual(algorithms.SPMV(got, x), algorithms.SPMV(want, x)) {
		t.Fatal("SPMV differs from a scratch build")
	}
	if !reflect.DeepEqual(algorithms.CC(got), algorithms.CC(want)) {
		t.Fatal("CC differs from a scratch build")
	}
}

// TestPatchAcrossSwap patches across the epoch shape placement-preserving
// repair produces — two vertices in different partitions exchange IDs and
// a third partition gains an in-edge — and checks the patched engine
// against a scratch build: rebuilt dirty partitions, remapped partitions
// holding the swapped sources, and shared structures everywhere else.
func TestPatchAcrossSwap(t *testing.T) {
	const P = 16
	rg, bounds, base := veboFixture(t, P)
	parts := base.Partitions()
	// Swap the vertices of least positive out-degree, so that some clean
	// partitions hold stale source references and others none.
	lowOut := func(pt int) graph.VertexID {
		best := parts[pt].Lo
		for v := parts[pt].Lo; v < parts[pt].Hi; v++ {
			if d := rg.OutDegree(v); d > 0 && (rg.OutDegree(best) == 0 || d < rg.OutDegree(best)) {
				best = v
			}
		}
		return best
	}
	a, b := lowOut(2), lowOut(9)
	perm := swapPerm(rg.NumVertices(), a, b)
	adds := []graph.Edge{{Src: parts[0].Lo + 1, Dst: parts[12].Lo, Weight: 1}}
	ng, _, err := rg.PatchEdgesPerm(adds, nil, perm)
	if err != nil {
		t.Fatal(err)
	}
	dirty := inAny([]graph.VertexID{a, b, parts[12].Lo})
	srcMoved := inAny(append(append([]graph.VertexID(nil), ng.OutNeighbors(a)...), ng.OutNeighbors(b)...))

	got, st, err := base.Patch(ng, perm, dirty, srcMoved)
	if err != nil {
		t.Fatal(err)
	}
	want := newEngine(t, ng, P, layout.CSROrder, bounds)
	if !reflect.DeepEqual(got.Partitions(), want.Partitions()) {
		t.Fatal("patched partitions differ from a scratch build")
	}
	sameResults(t, got, want)

	remapped := 0
	for i, pt := range parts {
		switch {
		case dirty(pt.Lo, pt.Hi):
		case srcMoved(pt.Lo, pt.Hi):
			remapped++
			if &got.coos[i].Dst[0] != &base.coos[i].Dst[0] {
				t.Fatalf("remapped partition %d copied its destination array", i)
			}
		case got.coos[i] != base.coos[i]:
			t.Fatalf("clean partition %d did not share its COO", i)
		}
	}
	if st.PartsRebuilt != 3 || st.PartsRemapped != remapped || st.PartsReused != P-3-remapped {
		t.Fatalf("patch split %+v, want 3 rebuilt and %d remapped", st, remapped)
	}
	if remapped == 0 || st.EdgesRemapped == 0 || st.PartsReused == 0 {
		t.Fatalf("swap did not exercise both the remap and the share path: %+v", st)
	}
	if &got.partOf[0] != &base.partOf[0] || &got.ranges[0] != &base.ranges[0] {
		t.Fatal("patch did not share the partition ranges and lookup table")
	}
}

// TestPatchRejectsVertexCountChange checks that a graph whose vertex space
// differs from the engine's cannot be patched: boundaries and slot count
// are fixed within a numbering lineage.
func TestPatchRejectsVertexCountChange(t *testing.T) {
	rg, _, base := veboFixture(t, 8)
	grown, _, err := rg.PatchEdgesN(rg.NumVertices()+1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := base.Patch(grown, nil, inAny(nil), nil); err == nil {
		t.Fatal("patch across a vertex-count change accepted")
	}
}

// TestPatchRebuildsMovedDestination swaps two destinations inside one
// partition while the caller claims every partition clean: remapping would
// keep the stale in-edge content, so that partition must be rebuilt.
func TestPatchRebuildsMovedDestination(t *testing.T) {
	const P = 8
	rg, bounds, base := veboFixture(t, P)
	pt := base.Partitions()[5]
	var moved []graph.VertexID
	for v := pt.Lo; v < pt.Hi && len(moved) < 2; v++ {
		if len(moved) == 0 || rg.InDegree(v) != rg.InDegree(moved[0]) {
			moved = append(moved, v)
		}
	}
	if len(moved) < 2 {
		t.Fatal("fixture partition has no two vertices of different in-degree")
	}
	perm := swapPerm(rg.NumVertices(), moved[0], moved[1])
	ng, _, err := rg.PatchEdgesPerm(nil, nil, perm)
	if err != nil {
		t.Fatal(err)
	}
	clean := func(lo, hi graph.VertexID) bool { return false }
	all := func(lo, hi graph.VertexID) bool { return true }
	got, st, err := base.Patch(ng, perm, clean, all)
	if err != nil {
		t.Fatal(err)
	}
	if st.PartsRebuilt != 1 {
		t.Fatalf("PartsRebuilt = %d, want 1 (the partition with the moved destinations)", st.PartsRebuilt)
	}
	want := newEngine(t, ng, P, layout.CSROrder, bounds)
	if !reflect.DeepEqual(got.Partitions(), want.Partitions()) {
		t.Fatal("patched partitions differ from a scratch build")
	}
	sameResults(t, got, want)
}

// TestPatchRebuiltCOOsMatchNew checks, in both edge orders, that Patch's
// rebuilt partitions hold byte for byte the COOs New builds over the
// patched graph: after edge churn with no renumbering every partition must
// equal New's (clean ones are shared unchanged), and after a swap the
// rebuilt ones must.
func TestPatchRebuiltCOOsMatchNew(t *testing.T) {
	const P = 16
	for _, o := range []layout.Order{layout.CSROrder, layout.HilbertOrder} {
		rg, bounds, _ := veboFixture(t, P)
		base := newEngine(t, rg, P, o, bounds)
		parts := base.Partitions()

		// Churn in partitions 3 and 11: a parallel pair of inserts and the
		// deletion of an existing in-edge.
		d3, d11 := parts[3].Lo, parts[11].Hi-1
		adds := []graph.Edge{
			{Src: parts[0].Lo, Dst: d3, Weight: 1},
			{Src: parts[0].Lo, Dst: d3, Weight: 1},
			{Src: parts[14].Lo, Dst: d11, Weight: 1},
		}
		var dels []graph.Edge
		for v := parts[11].Lo; v < parts[11].Hi && dels == nil; v++ {
			if src := rg.InNeighbors(v); len(src) > 0 {
				dels = []graph.Edge{{Src: src[0], Dst: v, Weight: 1}}
			}
		}
		if dels == nil {
			t.Fatal("fixture partition 11 has no in-edge to delete")
		}
		ng, _, err := rg.PatchEdgesN(rg.NumVertices(), adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		dirty := inAny([]graph.VertexID{d3, d11, dels[0].Dst})
		got, st, err := base.Patch(ng, nil, dirty, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.PartsRebuilt != 2 {
			t.Fatalf("%v: PartsRebuilt = %d, want 2", o, st.PartsRebuilt)
		}
		want := newEngine(t, ng, P, o, bounds)
		if !reflect.DeepEqual(got.coos, want.coos) || !reflect.DeepEqual(got.Partitions(), want.Partitions()) {
			t.Fatalf("%v: patched COOs differ from New over the patched graph", o)
		}

		// A swap across partitions 2 and 9: the two rebuilt partitions
		// must equal New's; remapped ones keep their stale entry order.
		a, b := parts[2].Lo, parts[9].Lo
		perm := swapPerm(rg.NumVertices(), a, b)
		sg, _, err := rg.PatchEdgesPerm(nil, nil, perm)
		if err != nil {
			t.Fatal(err)
		}
		moved := inAny([]graph.VertexID{a, b})
		got, st, err = base.Patch(sg, perm, moved, func(lo, hi graph.VertexID) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		want = newEngine(t, sg, P, o, bounds)
		if st.PartsRebuilt != 2 {
			t.Fatalf("%v: swap PartsRebuilt = %d, want 2", o, st.PartsRebuilt)
		}
		for i, pt := range parts {
			if moved(pt.Lo, pt.Hi) && !reflect.DeepEqual(got.coos[i], want.coos[i]) {
				t.Fatalf("%v: rebuilt partition %d differs from New's COO", o, i)
			}
		}
	}
}
