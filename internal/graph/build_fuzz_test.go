package graph

import (
	"slices"
	"sort"
	"testing"
)

// FuzzFromEdges checks that FromEdges's transposition construction lays out
// every row exactly as a per-row (neighbor, weight) comparison sort of the
// input multigraph would — the byte-identity contract patched graphs rely
// on. Small vertex counts and a narrow weight range make parallel edges
// with distinct, equal, zero and negative weights common.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(4), true, []byte{1, 2, 3, 1, 2, 0, 1, 2, 5, 3, 3, 3, 0, 0, 9})
	f.Add(uint8(1), false, []byte{0, 0, 0, 0, 0, 0})
	f.Add(uint8(17), true, []byte{0xff, 0x80, 0x40, 0x20, 0x10, 8, 4, 2, 1, 0, 7, 7, 7, 7})
	f.Add(uint8(0), true, []byte{})
	f.Fuzz(func(t *testing.T, nB uint8, weighted bool, data []byte) {
		n := int(nB % 33)
		if n == 0 && len(data) > 0 {
			n = 1
		}
		var edges []Edge
		for i := 0; i+2 < len(data); i += 3 {
			edges = append(edges, Edge{
				Src:    VertexID(int(data[i]) % n),
				Dst:    VertexID(int(data[i+1]) % n),
				Weight: int32(data[i+2]%7) - 2, // -2..4, zero included
			})
		}
		g, err := FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatalf("FromEdges on in-range inputs: %v", err)
		}
		if g.NumVertices() != n || g.NumEdges() != int64(len(edges)) || g.Weighted() != weighted {
			t.Fatalf("got n=%d m=%d weighted=%v, want %d %d %v",
				g.NumVertices(), g.NumEdges(), g.Weighted(), n, len(edges), weighted)
		}
		out, in := referenceRows(n, edges, weighted)
		for v := 0; v < n; v++ {
			id := VertexID(v)
			if !rowEqual(out[v], g.OutNeighbors(id), g.OutWeights(id)) {
				t.Fatalf("out-row %d = %v/%v, want %v", v, g.OutNeighbors(id), g.OutWeights(id), out[v])
			}
			if !rowEqual(in[v], g.InNeighbors(id), g.InWeights(id)) {
				t.Fatalf("in-row %d = %v/%v, want %v", v, g.InNeighbors(id), g.InWeights(id), in[v])
			}
		}
	})
}

type refEntry struct {
	id VertexID
	w  int32
}

// referenceRows builds every out- and in-row of the multigraph by
// collecting its entries and comparison-sorting them by (neighbor, weight),
// with FromEdges's weight normalization.
func referenceRows(n int, edges []Edge, weighted bool) (out, in [][]refEntry) {
	out = make([][]refEntry, n)
	in = make([][]refEntry, n)
	for _, e := range edges {
		w := e.Weight
		if !weighted || w == 0 {
			w = 1
		}
		out[e.Src] = append(out[e.Src], refEntry{e.Dst, w})
		in[e.Dst] = append(in[e.Dst], refEntry{e.Src, w})
	}
	for _, rows := range [][][]refEntry{out, in} {
		for _, r := range rows {
			sort.Slice(r, func(i, j int) bool {
				if r[i].id != r[j].id {
					return r[i].id < r[j].id
				}
				return r[i].w < r[j].w
			})
		}
	}
	return out, in
}

func rowEqual(want []refEntry, ids []VertexID, ws []int32) bool {
	if len(ids) != len(want) || len(ws) != len(want) {
		return false
	}
	return slices.EqualFunc(want, ids, func(e refEntry, id VertexID) bool { return e.id == id }) &&
		slices.EqualFunc(want, ws, func(e refEntry, w int32) bool { return e.w == w })
}
