package dynamic

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestFreezeStableAcrossMutations pins the capture contract: a Frozen taken
// at any point of a weighted churn stream (log insertions, deletions of base
// and of pending occurrences, compactions) materializes, after arbitrarily
// many later batches, exactly the edge multiset of its own epoch — checked
// against a reference replay, not against Snapshot (which materializes
// through Freeze itself) — so the later appends to the shared insertion and
// deletion logs are invisible to it.
func TestFreezeStableAcrossMutations(t *testing.T) {
	g, err := gen.ErdosRenyiWeighted(150, 1200, 8)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := gen.EdgeStream(g, gen.StreamConfig{
		Ops: 3000, DeleteFrac: 0.45, PreferentialFrac: 0.5, Weighted: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(g, Config{Partitions: 8, CompactEvery: 900})
	if err != nil {
		t.Fatal(err)
	}
	type capture struct {
		f    Frozen
		want *graph.Graph
	}
	var caps []capture
	for lo := 0; lo < len(updates); lo += 100 {
		hi := min(lo+100, len(updates))
		if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
		f := d.Freeze()
		if f.Epoch() != d.Epoch() || f.NumEdges() != d.NumEdges() {
			t.Fatalf("capture epoch/edges (%d,%d), live (%d,%d)", f.Epoch(), f.NumEdges(), d.Epoch(), d.NumEdges())
		}
		// Every deletion carries a weight selector, so the reference replay
		// determines the surviving (src,dst,weight) multiset exactly.
		var live []graph.Edge
		for e, c := range referenceSurvivorsWeighted(g, updates[:hi]) {
			for ; c > 0; c-- {
				live = append(live, e)
			}
		}
		want, err := graph.FromEdges(g.NumVertices(), live, true)
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, capture{f, want})
	}
	if d.Stats().Compactions == 0 {
		t.Fatal("stream never compacted; the cross-compaction capture was not exercised")
	}
	for i, c := range caps {
		if got := c.f.Materialize(); !graph.Equal(got, c.want) {
			t.Fatalf("capture %d (epoch %d): materialized %d edges, reference %d (or differs)",
				i, c.f.Epoch(), got.NumEdges(), c.want.NumEdges())
		}
	}
}

// BenchmarkFreeze times one capture of the live edge multiset with an empty
// delta log and with 8k pending operations (insertions plus deletions of
// base and pending occurrences) on a 20k-edge graph.
func BenchmarkFreeze(b *testing.B) {
	for _, ops := range []int{0, 8 << 10} {
		b.Run(fmt.Sprintf("pending=%d", ops), func(b *testing.B) {
			g, err := gen.ErdosRenyiWeighted(2000, 20000, 3)
			if err != nil {
				b.Fatal(err)
			}
			d, err := New(g, Config{Partitions: 16, CompactEvery: 1 << 30,
				RebuildThreshold: 1 << 40, DisableAdaptiveThreshold: true})
			if err != nil {
				b.Fatal(err)
			}
			if ops > 0 {
				updates, err := gen.EdgeStream(g, gen.StreamConfig{
					Ops: ops, DeleteFrac: 0.4, PreferentialFrac: 0.5, Weighted: true, Seed: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.ApplyBatch(updates); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var f Frozen
			for i := 0; i < b.N; i++ {
				f = d.Freeze()
			}
			if f.NumEdges() != d.NumEdges() {
				b.Fatal("capture out of date")
			}
		})
	}
}
