package layout

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hilbert"
	"repro/internal/partition"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 300, S: 1.0, MaxDegree: 40, Seed: 8, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// whole builds g's edges as a single COO covering every destination.
func whole(t *testing.T, g *graph.Graph, o Order) *COO {
	t.Helper()
	coos, err := Build(g, []partition.Partition{{Hi: graph.VertexID(g.NumVertices())}}, o, nil)
	if err != nil {
		t.Fatalf("Build(%v): %v", o, err)
	}
	return coos[0]
}

// edgeMultiset counts (src,dst,w) triples.
func edgeMultiset(c *COO) map[[3]int64]int {
	m := make(map[[3]int64]int)
	for i := 0; i < c.Len(); i++ {
		m[[3]int64{int64(c.Src[i]), int64(c.Dst[i]), int64(c.Weight[i])}]++
	}
	return m
}

func TestBuildPreservesEdgeMultiset(t *testing.T) {
	g := testGraph(t)
	var ref map[[3]int64]int
	for _, o := range []Order{CSROrder, HilbertOrder} {
		c := whole(t, g, o)
		if int64(c.Len()) != g.NumEdges() {
			t.Fatalf("%v: %d edges, want %d", o, c.Len(), g.NumEdges())
		}
		if c.Ordering != o {
			t.Fatalf("%v: COO records ordering %v", o, c.Ordering)
		}
		ms := edgeMultiset(c)
		if ref == nil {
			ref = ms
			continue
		}
		if len(ms) != len(ref) {
			t.Fatalf("%v: edge multiset size differs", o)
		}
		for k, v := range ref {
			if ms[k] != v {
				t.Fatalf("%v: edge %v count %d, want %d", o, k, ms[k], v)
			}
		}
	}
}

func TestCSROrderSorted(t *testing.T) {
	g := testGraph(t)
	c := whole(t, g, CSROrder)
	for i := 1; i < c.Len(); i++ {
		if c.Src[i-1] > c.Src[i] ||
			(c.Src[i-1] == c.Src[i] && c.Dst[i-1] > c.Dst[i]) {
			t.Fatalf("CSR order violated at %d: (%d,%d) > (%d,%d)",
				i, c.Src[i-1], c.Dst[i-1], c.Src[i], c.Dst[i])
		}
	}
}

func TestHilbertOrderSortedByCurveIndex(t *testing.T) {
	g := testGraph(t)
	c := whole(t, g, HilbertOrder)
	k := hilbert.OrderFor(g.NumVertices())
	var prev uint64
	for i := 0; i < c.Len(); i++ {
		d := hilbert.XY2D(k, uint32(c.Src[i]), uint32(c.Dst[i]))
		if i > 0 && d < prev {
			t.Fatalf("Hilbert order violated at %d: %d < %d", i, d, prev)
		}
		prev = d
	}
}

func TestBuildRange(t *testing.T) {
	g := testGraph(t)
	lo, hi := graph.VertexID(50), graph.VertexID(120)
	parts := []partition.Partition{{Lo: 0, Hi: lo}, {Lo: lo, Hi: hi}}
	coos, err := Build(g, parts, CSROrder, func(i int) bool { return i == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if coos[0] != nil {
		t.Fatal("partition outside the rebuild set was built")
	}
	c := coos[1]
	var want int64
	for v := lo; v < hi; v++ {
		want += g.InDegree(v)
	}
	if int64(c.Len()) != want {
		t.Fatalf("range COO has %d edges, want %d", c.Len(), want)
	}
	for i := 0; i < c.Len(); i++ {
		if c.Dst[i] < lo || c.Dst[i] >= hi {
			t.Fatalf("edge %d destination %d outside [%d,%d)", i, c.Dst[i], lo, hi)
		}
	}
}

func TestBuildRangeInvalid(t *testing.T) {
	g := testGraph(t)
	n := graph.VertexID(g.NumVertices())
	for _, o := range []Order{CSROrder, HilbertOrder} {
		if _, err := Build(g, []partition.Partition{{Lo: 10, Hi: 5}}, o, nil); err == nil {
			t.Errorf("%v: expected error for reversed range", o)
		}
		if _, err := Build(g, []partition.Partition{{Lo: 0, Hi: n + 5}}, o, nil); err == nil {
			t.Errorf("%v: expected error for out-of-range hi", o)
		}
	}
	if _, err := Build(g, []partition.Partition{{Lo: 0, Hi: 20}, {Lo: 10, Hi: n}}, CSROrder, nil); err == nil {
		t.Error("expected error for overlapping partitions")
	}
	if _, err := Build(g, []partition.Partition{{Hi: n}}, Order(99), nil); err == nil {
		t.Error("expected error for unknown order")
	}
}

// TestBuildRangeWholeGraphMatchesBuild: both orders are total orders on
// (source, destination, weight), so a partition's COO is the whole-graph
// COO filtered to the partition's destinations.
func TestBuildRangeWholeGraphMatchesBuild(t *testing.T) {
	g := testGraph(t)
	parts, err := partition.ByDestination(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Order{CSROrder, HilbertOrder} {
		all := whole(t, g, o)
		coos, err := Build(g, parts, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range parts {
			want := &COO{Ordering: o}
			for j := 0; j < all.Len(); j++ {
				if d := all.Dst[j]; d >= pt.Lo && d < pt.Hi {
					want.Src = append(want.Src, all.Src[j])
					want.Dst = append(want.Dst, d)
					want.Weight = append(want.Weight, all.Weight[j])
				}
			}
			if !cooEqual(coos[i], want) {
				t.Fatalf("%v: partition %d [%d,%d) differs from the filtered whole-graph COO", o, i, pt.Lo, pt.Hi)
			}
		}
	}
}

// referenceCOO is the comparison-sort construction Build replaced: gather
// [lo, hi)'s in-edges in in-row order, then stable-sort them by (source,
// destination) or by Hilbert key.
func referenceCOO(g *graph.Graph, lo, hi graph.VertexID, o Order) *COO {
	type entry struct {
		s, d graph.VertexID
		w    int32
	}
	var ents []entry
	for d := lo; d < hi; d++ {
		ws := g.InWeights(d)
		for j, s := range g.InNeighbors(d) {
			ents = append(ents, entry{s, d, ws[j]})
		}
	}
	k := hilbert.OrderFor(g.NumVertices())
	sort.SliceStable(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		if o == HilbertOrder {
			return hilbert.XY2D(k, a.s, a.d) < hilbert.XY2D(k, b.s, b.d)
		}
		if a.s != b.s {
			return a.s < b.s
		}
		return a.d < b.d
	})
	c := &COO{Ordering: o}
	for _, e := range ents {
		c.Src = append(c.Src, e.s)
		c.Dst = append(c.Dst, e.d)
		c.Weight = append(c.Weight, e.w)
	}
	return c
}

func cooEqual(a, b *COO) bool {
	return a.Ordering == b.Ordering && slices.Equal(a.Src, b.Src) &&
		slices.Equal(a.Dst, b.Dst) && slices.Equal(a.Weight, b.Weight)
}

// TestBuildMatchesStableSortReference pins Build byte for byte to the
// stable comparison sort over random weighted multigraphs (dense in
// parallel edges), random partitionings with empty partitions, and random
// rebuild sets.
func TestBuildMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		edges := make([]graph.Edge, rng.Intn(8*n+1))
		for i := range edges {
			edges[i] = graph.Edge{
				Src:    graph.VertexID(rng.Intn(n)),
				Dst:    graph.VertexID(rng.Intn(n)),
				Weight: int32(rng.Intn(5)) - 1,
			}
		}
		g, err := graph.FromEdges(n, edges, trial%3 != 0)
		if err != nil {
			t.Fatal(err)
		}
		var parts []partition.Partition
		for lo := 0; lo < n; {
			hi := min(n, lo+rng.Intn(6))
			parts = append(parts, partition.Partition{Lo: graph.VertexID(lo), Hi: graph.VertexID(hi)})
			lo = hi
		}
		rebuild := make([]bool, len(parts))
		for i := range rebuild {
			rebuild[i] = rng.Intn(3) > 0
		}
		sel := func(i int) bool { return rebuild[i] }
		if trial%4 == 0 {
			sel = nil
		}
		for _, o := range []Order{CSROrder, HilbertOrder} {
			coos, err := Build(g, parts, o, sel)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, o, err)
			}
			for i, pt := range parts {
				if sel != nil && !rebuild[i] {
					if coos[i] != nil {
						t.Fatalf("trial %d %v: partition %d built outside the rebuild set", trial, o, i)
					}
					continue
				}
				if want := referenceCOO(g, pt.Lo, pt.Hi, o); !cooEqual(coos[i], want) {
					t.Fatalf("trial %d %v: partition %d [%d,%d) = %v/%v/%v, want %v/%v/%v", trial, o, i,
						pt.Lo, pt.Hi, coos[i].Src, coos[i].Dst, coos[i].Weight, want.Src, want.Dst, want.Weight)
				}
			}
		}
	}
}

func TestOrderString(t *testing.T) {
	if CSROrder.String() != "csr" || HilbertOrder.String() != "hilbert" {
		t.Error("Order.String labels wrong")
	}
	if Order(99).String() == "" {
		t.Error("unknown order should stringify")
	}
}
