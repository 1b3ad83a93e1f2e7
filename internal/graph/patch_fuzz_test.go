package graph

import (
	"testing"
)

// FuzzPatchEdges drives the two live patch shapes with fuzzed graphs and
// edge churn — nil-perm growth through PatchEdgesN (the snapshot shape) and
// a swap permutation at a fixed vertex count through PatchEdgesPerm (the
// in-lineage reorder shape) — using relabel+rebuild as the oracle. Invalid
// shapes the fuzzer produces must be rejected with an error, never a panic
// or a silently wrong graph.
func FuzzPatchEdges(f *testing.F) {
	f.Add(uint8(8), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0})
	f.Add(uint8(31), uint8(7), []byte{0xff, 0x80, 0x40, 0x20, 0x10, 8, 4, 2, 1, 0})
	f.Add(uint8(5), uint8(0), []byte{9, 9, 9, 9, 1, 2})
	f.Add(uint8(12), uint8(4), []byte{2, 1, 2, 3, 4, 0, 5, 6, 7, 8, 9})
	f.Add(uint8(6), uint8(2), []byte{1, 3, 1, 2, 0, 4, 6, 1})
	f.Fuzz(func(t *testing.T, nOldB, growB uint8, data []byte) {
		next := byteStream(data)
		nOld := 1 + int(nOldB%32)
		weighted := len(data)%2 == 0

		// Base graph from the byte stream.
		nEdges := int(next()) % 64
		edges := make([]Edge, 0, nEdges)
		for i := 0; i < nEdges; i++ {
			w := int32(1)
			if weighted {
				w = int32(next()%4) + 1
			}
			edges = append(edges, Edge{
				Src:    VertexID(int(next()) % nOld),
				Dst:    VertexID(int(next()) % nOld),
				Weight: w,
			})
		}
		g, err := FromEdges(nOld, edges, weighted)
		if err != nil {
			t.Fatalf("FromEdges on in-range inputs: %v", err)
		}

		// Shape: a zero mode byte after the edge stream selects growth by
		// growB%8 appended vertices with the identity map; anything else a
		// product of byte-chosen swaps at the fixed vertex count, which may
		// be empty (the identity perm, which must take the no-remap path).
		grow := next()%2 == 0
		nNew := nOld
		perm := make([]VertexID, nOld)
		for v := range perm {
			perm[v] = VertexID(v)
		}
		moved := false
		if grow {
			nNew += int(growB % 8)
		} else {
			for s := int(next()) % 4; s > 0; s-- {
				a, b := int(next())%nOld, int(next())%nOld
				perm[a], perm[b] = perm[b], perm[a]
				moved = moved || a != b
			}
		}

		// Churn: delete live edges (named in new-ID space), add edges that
		// may touch appended IDs.
		live := g.Edges()
		var dels []Edge
		for i := int(next()) % 8; i > 0 && len(live) > 0; i-- {
			j := int(next()) % len(live)
			e := live[j]
			dels = append(dels, Edge{Src: perm[e.Src], Dst: perm[e.Dst], Weight: e.Weight})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		var adds []Edge
		for i := int(next()) % 8; i > 0; i-- {
			w := int32(1)
			if weighted {
				w = int32(next()%4) + 1
			}
			src := VertexID(int(next()) % nNew)
			if nNew > nOld && next()%2 == 0 {
				src = VertexID(nOld + int(next())%(nNew-nOld))
			}
			adds = append(adds, Edge{Src: src, Dst: VertexID(int(next()) % nNew), Weight: w})
		}

		var patched *Graph
		var st PatchStats
		if grow {
			patched, st, err = g.PatchEdgesN(nNew, adds, dels)
		} else {
			patched, st, err = g.PatchEdgesPerm(adds, dels, perm)
		}
		if err != nil {
			t.Fatalf("valid patch (grow=%v) rejected: %v", grow, err)
		}
		want, err := FromEdges(nNew, append(applyPermToEdges(live, perm), adds...), weighted)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(patched, want) {
			t.Fatalf("nOld=%d nNew=%d grow=%v: patch differs from relabel+rebuild", nOld, nNew, grow)
		}
		if covered := st.EdgesCopied + st.EdgesMerged + st.EdgesRemapped; covered < patched.NumEdges() {
			t.Fatalf("stats cover %d of %d edges", covered, patched.NumEdges())
		}
		if !moved && st.EdgesRemapped != 0 {
			t.Fatalf("no vertex moved but %d edges remapped; the O(delta) fast path was skipped", st.EdgesRemapped)
		}

		// The validation surface: malformed shapes must error out.
		if _, _, err := g.PatchEdgesN(nOld-1, nil, nil); err == nil {
			t.Fatal("shrinking patch accepted")
		}
		if nOld >= 2 {
			bad := append([]VertexID(nil), perm...)
			bad[1] = bad[0] // collide: no longer a permutation
			if _, _, err := g.PatchEdgesPerm(nil, nil, bad); err == nil {
				t.Fatal("non-permutation accepted")
			}
		}
		grown := append(append([]VertexID(nil), perm...), VertexID(nOld))
		if _, _, err := g.PatchEdgesPerm(nil, nil, grown); err == nil {
			t.Fatal("grown-length perm accepted")
		}
		if _, _, err := g.PatchEdgesPerm(nil, nil, perm[:nOld-1]); err == nil {
			t.Fatal("short perm accepted")
		}
		injected := append([]VertexID(nil), perm...)
		injected[int(next())%nOld] = VertexID(nOld) // target past the vertex space
		if _, _, err := g.PatchEdgesPerm(nil, nil, injected); err == nil {
			t.Fatal("perm into a grown space accepted")
		}
		if _, _, err := g.PatchEdgesN(nNew, []Edge{{Src: VertexID(nNew), Dst: 0, Weight: 1}}, nil); err == nil {
			t.Fatal("out-of-range add accepted")
		}
		if _, _, err := g.PatchEdgesPerm([]Edge{{Src: VertexID(nOld), Dst: 0, Weight: 1}}, nil, perm); err == nil {
			t.Fatal("out-of-range add accepted at fixed n")
		}
	})
}

// byteStream returns a cursor over data that yields 0 forever once
// exhausted, keeping derivations total on arbitrary fuzz inputs.
func byteStream(data []byte) func() byte {
	i := 0
	return func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
}
