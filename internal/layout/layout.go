// Package layout materializes per-partition COO (coordinate-format) edge
// arrays in the traversal orders studied in Section V-G of the paper: CSR
// order (edges sorted by source vertex, then destination) and Hilbert
// space-filling curve order. GraphGrind-style engines traverse the COO
// directly for dense frontiers, so the edge order determines the
// memory-access pattern.
package layout

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/hilbert"
	"repro/internal/partition"
)

// Order selects a COO edge ordering.
type Order int

const (
	// CSROrder sorts edges by (source, destination): the traversal order of
	// a CSR walk by increasing source ID.
	CSROrder Order = iota
	// HilbertOrder sorts edges by their position along the Hilbert curve
	// over the (source, destination) grid.
	HilbertOrder
)

func (o Order) String() string {
	switch o {
	case CSROrder:
		return "csr"
	case HilbertOrder:
		return "hilbert"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// COO is a coordinate-format edge list with parallel arrays.
type COO struct {
	Src, Dst []graph.VertexID
	Weight   []int32
	Ordering Order
}

// Len returns the number of edges.
func (c *COO) Len() int { return len(c.Src) }

// Build materializes one COO per partition, holding the in-edges of the
// partition's destination range [Lo, Hi) in order o. rebuild selects the
// partitions to build (nil builds every one); the others are left nil.
// The ranges of the built partitions must be disjoint. Parallel edges
// appear in ascending weight order, so a COO is a pure function of its
// partition's edge multiset.
//
// A CSR-order build is one scan of g's out-rows in source order that
// appends each edge to its destination's partition: the rows are sorted by
// (destination, weight), so every COO comes out sorted by (source,
// destination, weight) in linear time. A Hilbert-order build walks each
// partition's in-rows and sorts them by (curve key, weight); the key is a
// bijection on (source, destination), so weight only breaks ties between
// parallel edges.
func Build(g *graph.Graph, parts []partition.Partition, o Order, rebuild func(i int) bool) ([]*COO, error) {
	if o != CSROrder && o != HilbertOrder {
		return nil, fmt.Errorf("layout: unknown order %v", o)
	}
	n := g.NumVertices()
	inOff := g.InOffsets()
	coos := make([]*COO, len(parts))
	built := 0
	for i, pt := range parts {
		if pt.Lo > pt.Hi || int(pt.Hi) > n {
			return nil, fmt.Errorf("layout: invalid range [%d,%d)", pt.Lo, pt.Hi)
		}
		if rebuild != nil && !rebuild(i) {
			continue
		}
		m := inOff[pt.Hi] - inOff[pt.Lo]
		if m > math.MaxUint32 {
			return nil, fmt.Errorf("layout: partition %d has %d edges, more than a COO indexes", i, m)
		}
		coos[i] = &COO{
			Src:      make([]graph.VertexID, m),
			Dst:      make([]graph.VertexID, m),
			Weight:   make([]int32, m),
			Ordering: o,
		}
		built++
	}
	if built == 0 {
		return coos, nil
	}
	if o == HilbertOrder {
		buildHilbert(g, parts, coos)
		return coos, nil
	}

	// owner maps a destination to its built partition (-1: none), and
	// fill[i] counts the entries of coos[i] written so far.
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = -1
	}
	for i, c := range coos {
		if c == nil {
			continue
		}
		for v := parts[i].Lo; v < parts[i].Hi; v++ {
			if owner[v] >= 0 {
				return nil, fmt.Errorf("layout: partitions %d and %d overlap at vertex %d", owner[v], i, v)
			}
			owner[v] = int32(i)
		}
	}
	fill := make([]int64, len(coos))
	for s := 0; s < n; s++ {
		src := graph.VertexID(s)
		ws := g.OutWeights(src)
		for j, d := range g.OutNeighbors(src) {
			p := owner[d]
			if p < 0 {
				continue
			}
			c, k := coos[p], fill[p]
			c.Src[k], c.Dst[k], c.Weight[k] = src, d, ws[j]
			fill[p] = k + 1
		}
	}
	return coos, nil
}

// buildHilbert fills every non-nil coos[i] with parts[i]'s in-edges in
// (Hilbert key, weight) order. Entries name an in-edge by its position in
// the partition's in-rows: parallel edges sit there adjacent in ascending
// weight order, so breaking key ties by position orders them by weight.
func buildHilbert(g *graph.Graph, parts []partition.Partition, coos []*COO) {
	type entry struct {
		key uint64
		dst graph.VertexID
		pos uint32 // in-edge offset from the partition's first in-edge
	}
	k := hilbert.OrderFor(g.NumVertices())
	inOff, inSrc := g.InOffsets(), g.InEdgeSources()
	var ents []entry
	for i, c := range coos {
		if c == nil {
			continue
		}
		lo, hi := parts[i].Lo, parts[i].Hi
		base := inOff[lo]
		ents = slices.Grow(ents[:0], c.Len())
		for d := lo; d < hi; d++ {
			for e := inOff[d]; e < inOff[d+1]; e++ {
				ents = append(ents, entry{hilbert.XY2D(k, inSrc[e], d), d, uint32(e - base)})
			}
		}
		slices.SortFunc(ents, func(a, b entry) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.pos, b.pos)
		})
		for j, e := range ents {
			pos := base + int64(e.pos)
			c.Src[j], c.Dst[j] = inSrc[pos], e.dst
			c.Weight[j] = g.InWeights(e.dst)[pos-inOff[e.dst]]
		}
	}
}
