package vebo

import (
	"fmt"
	"testing"
	"time"
)

// backlogDynamic returns a reader-less Dynamic over the twitter recipe
// (~77k edges, so the give-up bound m/4 + 8192 sits above 27k) whose
// publish backlog holds about backlog entries: distinct edge insertions,
// with repair, re-sort and compaction disabled so nothing else enters the
// window and no maintenance cost varies between the measured batches.
func backlogDynamic(tb testing.TB, backlog int) *Dynamic {
	tb.Helper()
	g, err := Generate("twitter", 0.05, 1)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{
		Partitions: 64, RebuildThreshold: 1 << 40, DisableAdaptiveThreshold: true,
		CompactEvery: 1 << 30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	n := g.NumVertices()
	ups := make([]EdgeUpdate, 0, 1024)
	for i := 0; i < backlog; i++ {
		ups = append(ups, EdgeUpdate{Src: VertexID(i / n), Dst: VertexID(i % n)})
		if len(ups) == cap(ups) || i == backlog-1 {
			if _, err := d.ApplyBatch(ups); err != nil {
				tb.Fatal(err)
			}
			ups = ups[:0]
		}
	}
	if got := d.Metrics().Gauge("vebo_delta_backlog").Value(); got < int64(backlog) {
		tb.Fatalf("backlog %d, want at least %d (did the give-up bound trip?)", got, backlog)
	}
	return d
}

// TestPublishAllocsIndependentOfBacklog is the O(batch) publication
// regression: on a stream no reader ever materializes, the allocations of
// one fixed small ApplyBatch (publish included) must not depend on how much
// history the publish backlog holds. A publish that copies its accumulated
// delta, or a Freeze that copies the delta log's bookkeeping, allocates in
// proportion to the backlog and fails here.
func TestPublishAllocsIndependentOfBacklog(t *testing.T) {
	// Insert two edges and delete them again: the batch nets to nothing, so
	// the backlog stays put across the measured runs.
	churn := []EdgeUpdate{
		{Src: 1, Dst: 2}, {Src: 3, Dst: 4},
		{Src: 1, Dst: 2, Del: true}, {Src: 3, Dst: 4, Del: true},
	}
	allocs := func(backlog int) float64 {
		d := backlogDynamic(t, backlog)
		links := len(d.chain)
		n := testing.AllocsPerRun(200, func() {
			if _, err := d.ApplyBatch(churn); err != nil {
				t.Fatal(err)
			}
		})
		// A batch that nets to nothing must not lengthen the chain either:
		// the give-up bound counts entries, so empty links would escape it.
		if len(d.chain) != links {
			t.Fatalf("empty batches grew the delta chain from %d to %d links", links, len(d.chain))
		}
		return n
	}
	idle, loaded := allocs(0), allocs(20000)
	if loaded > idle+4 {
		t.Fatalf("ApplyBatch allocates %.0f times at backlog 20000 vs %.0f at backlog 0: publication cost grows with history",
			loaded, idle)
	}
}

// BenchmarkPublish times one publication — drain, Freeze, view assembly,
// basis bookkeeping — on a reader-less stream at several backlog sizes.
// Each iteration publishes an empty batch's delta, so the backlog stays
// constant and the time is the cost history adds to a publish.
func BenchmarkPublish(b *testing.B) {
	for _, backlog := range []int{0, 8 << 10, 24 << 10} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			d := backlogDynamic(b, backlog)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.publish(time.Now())
			}
		})
	}
}

// BenchmarkIngestBatch times one IngestBatch — the admission path — on
// 256-update batches of a powerlaw stream with vertex arrivals (GrowFrac
// 0.02, dense IDs fed as identity externals): interning, in-batch
// admission, the updates, end-of-batch maintenance and publication. The
// first batch of each replay (allocator seeding and the lineage's first
// slotted relabel) and the restart when the stream runs out are untimed.
func BenchmarkIngestBatch(b *testing.B) {
	const batch, batches = 256, 64
	g, updates, err := GenerateStreamOpts("powerlaw", 0.05, batch*(batches+1), 1, StreamOptions{GrowFrac: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	xups := IdentityExternal(updates)
	var d *Dynamic
	next := len(xups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(xups) {
			b.StopTimer()
			if d, err = NewDynamic(g, DynamicOptions{}); err != nil {
				b.Fatal(err)
			}
			if _, err := d.IngestBatch(xups[:batch]); err != nil {
				b.Fatal(err)
			}
			next = batch
			b.StartTimer()
		}
		if _, err := d.IngestBatch(xups[next : next+batch]); err != nil {
			b.Fatal(err)
		}
		next += batch
	}
}
