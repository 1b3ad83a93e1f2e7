package vebo

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
)

// applyStream pushes updates through ApplyBatch in fixed-size batches.
func applyStream(t *testing.T, d *Dynamic, updates []EdgeUpdate, batch int) {
	t.Helper()
	for lo := 0; lo < len(updates); lo += batch {
		hi := min(lo+batch, len(updates))
		if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuerySpansLinkToPublish is the causality acceptance check: every query
// span in the collector parent-links to the publish span of the epoch it
// read, and every publish span (after the first) parent-links to the ingest
// batch that produced its epoch.
func TestQuerySpansLinkToPublish(t *testing.T) {
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 512, 11)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, 128)

	v := d.View()
	if _, err := v.BFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PageRank(GraphGrind, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.RefineBFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}

	byID := make(map[obs.SpanID]obs.Span)
	var queries, publishes, batches int
	for _, sp := range d.Spans().Snapshot() {
		byID[sp.ID] = sp
		switch sp.Kind {
		case "query":
			queries++
		case "publish":
			publishes++
		case "ingest":
			batches++
		}
	}
	if queries < 3 || publishes == 0 || batches == 0 {
		t.Fatalf("span mix too thin: %d queries, %d publishes, %d batches", queries, publishes, batches)
	}

	for _, sp := range byID {
		switch sp.Kind {
		case "query", "build":
			if sp.Parent == 0 {
				t.Fatalf("%s span %q has no parent link", sp.Kind, sp.Name)
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("%s span %q parent %d not retained", sp.Kind, sp.Name, sp.Parent)
			}
			if parent.Kind != "publish" {
				t.Errorf("%s span %q parents a %q span, want publish", sp.Kind, sp.Name, parent.Kind)
			}
			if parent.Epoch != sp.Epoch {
				t.Errorf("%s span %q epoch %d != publish epoch %d", sp.Kind, sp.Name, sp.Epoch, parent.Epoch)
			}
		case "publish":
			// All but the initial epoch-0 publish chain back to a batch.
			if sp.Parent == 0 {
				if sp.Epoch != 0 {
					t.Errorf("publish of epoch %d has no batch parent", sp.Epoch)
				}
				continue
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("publish span parent %d not retained", sp.Parent)
			}
			if parent.Kind != "ingest" {
				t.Errorf("publish parents a %q span, want ingest", parent.Kind)
			}
		case "maintain":
			// The initial build is the lineage root and precedes every batch.
			if sp.Parent == 0 && (sp.Name != "graph" || sp.Cause != "build" || sp.Epoch != 0) {
				t.Errorf("maintain span %q (cause %q) has no batch parent", sp.Name, sp.Cause)
			}
		}
	}
}

// TestSpanVocabulary pins the epoch-lifecycle span vocabulary (DESIGN.md
// §6): one row per lifecycle site, each asserting that a span with the
// site's name, kind and cause exists, carries the site's attribute keys,
// and links to the expected parent — the batch span (kind ingest), the
// publish span, or none for steps outside any batch.
func TestSpanVocabulary(t *testing.T) {
	// Stream scenario: churn with vertex arrivals, a small delta-log bound
	// and one-slot headroom exercises batch, repair, resort, in-batch
	// compact, grow and spill; queries on the newest view add the publish,
	// view-build and refine spans; a forced rebuild and an explicit Compact
	// file parentless maintenance spans.
	g, updates, err := GenerateStreamOpts("powerlaw", 0.05, 4000, 3, StreamOptions{GrowFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{
		Partitions: 16, CompactEvery: 512, MinHeadroom: 1, HeadroomFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	xups := IdentityExternal(updates)
	for lo := 0; lo < len(xups); lo += 256 {
		if _, err := d.IngestBatch(xups[lo:min(lo+256, len(xups))]); err != nil {
			t.Fatal(err)
		}
	}
	v := d.View()
	if _, err := v.BFS(GraphGrind, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.RefineBFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}
	d.inner.Rebuild()
	d.Compact()
	stream := d.Spans().Snapshot()

	// Stall scenario: every in-edge lands on one vertex and P=2, so the
	// repair finds neither an improving swap nor a rotation and the
	// fallback rebuild names the stall.
	sg, err := FromEdges(4, []Edge{{Src: 1, Dst: 0, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewDynamic(sg, DynamicOptions{
		Partitions: 2, RebuildThreshold: 1, DisableAdaptiveThreshold: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pile []EdgeUpdate
	for i := 0; i < 10; i++ {
		pile = append(pile, EdgeUpdate{Src: VertexID(1 + i%3), Dst: 0})
	}
	if _, err := sd.ApplyBatch(pile); err != nil {
		t.Fatal(err)
	}
	stall := sd.Spans().Snapshot()

	// Ingest scenario: external-ID ingest interns unseen vertices, and the
	// batch admits them before its update loop, so the first-growth spill
	// and the grow span parent onto the batch span.
	id, err := NewDynamic(sg, DynamicOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := id.IngestBatch([]ExternalEdgeUpdate{{Src: 100, Dst: 200}, {Src: 200, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	scenarios := map[string][]obs.Span{"": stream, "stall": stall, "ingest": id.Spans().Snapshot()}

	rebuildAttrs := []string{"placements", "delta_after", "vertex_after"}
	compactAttrs := []string{"pending_ops", "base_edges"}
	rows := []struct {
		site              string
		scenario          string // "stall"/"ingest" instead of the stream
		name, kind, cause string
		sys               string
		attrs             []string
		parent            string // parent span's kind; "" for no parent
	}{
		{site: "batch", name: "batch", kind: "ingest",
			attrs: []string{"applied", "admitted", "repaired", "rebuilt", "compacted", "edge_imbalance", "vertex_imbalance"}},
		{site: "repair", name: "repair", kind: "maintain", cause: "threshold-trip",
			attrs:  []string{"delta_before", "delta_after", "vertex_before", "vertex_after", "threshold", "swaps", "rotations", "stalled"},
			parent: "ingest"},
		{site: "rebuild", scenario: "stall", name: "rebuild", kind: "maintain", cause: "rotation-stall",
			attrs: rebuildAttrs, parent: "ingest"},
		{site: "grow", name: "grow", kind: "maintain", cause: "growth-spill",
			attrs: []string{"admitted", "vertices", "spills", "headroom_free"}, parent: "ingest"},
		{site: "spill", name: "spill", kind: "maintain", cause: "headroom-exhausted", parent: "ingest"},
		{site: "grow/ingest", scenario: "ingest", name: "grow", kind: "maintain", cause: "growth-headroom",
			attrs: []string{"admitted", "vertices", "spills", "headroom_free"}, parent: "ingest"},
		{site: "spill/ingest", scenario: "ingest", name: "spill", kind: "maintain", cause: "first-growth", parent: "ingest"},
		{site: "resort", name: "resort", kind: "maintain", cause: "locality-decay",
			attrs: []string{"partition", "moved"}, parent: "ingest"},
		{site: "compact/in-batch", name: "compact", kind: "maintain", cause: "log-bound",
			attrs: compactAttrs, parent: "ingest"},
		{site: "compact/explicit", name: "compact", kind: "maintain", cause: "log-bound", attrs: compactAttrs},
		{site: "rebuild/forced", name: "rebuild", kind: "maintain", cause: "forced", attrs: rebuildAttrs},
		{site: "initial-build", name: "graph", kind: "maintain", cause: "build",
			attrs: []string{"vertices", "edges", "partitions"}},
		{site: "publish", name: "publish", kind: "publish",
			attrs:  []string{"basis_epoch", "delta_backlog", "publish_lag_ns", "renum_epoch", "delta_net", "delta_moved", "delta_grown"},
			parent: "ingest"},
		{site: "graph", name: "graph", kind: "build", cause: "reorder-build",
			attrs: []string{"edges_touched", "edges_reused"}, parent: "publish"},
		{site: "engine", name: "engine", kind: "build", cause: "build", sys: "graphgrind", parent: "publish"},
		{site: "refine", name: "query:refine-bfs", kind: "query", cause: RefineScratchSeed, sys: "ligra",
			attrs: []string{"reset", "frontier", "seed_epoch"}, parent: "publish"},
	}
	for _, r := range rows {
		t.Run(r.site, func(t *testing.T) {
			spans := scenarios[r.scenario]
			byID := make(map[obs.SpanID]obs.Span, len(spans))
			for _, sp := range spans {
				byID[sp.ID] = sp
			}
			parentKind := func(sp obs.Span) string {
				if sp.Parent == 0 {
					return ""
				}
				if p, ok := byID[sp.Parent]; ok {
					return p.Kind
				}
				return "unretained"
			}
			var match *obs.Span
			var named []string
			for i := range spans {
				sp := &spans[i]
				if sp.Name != r.name {
					continue
				}
				named = append(named, sp.Kind+"/"+sp.Cause+"<-"+parentKind(*sp))
				if sp.Kind == r.kind && sp.Cause == r.cause && parentKind(*sp) == r.parent {
					match = sp
					break
				}
			}
			if match == nil {
				t.Fatalf("no %q span of kind %q, cause %q, parent %q; %q spans seen (kind/cause<-parent): %v",
					r.name, r.kind, r.cause, r.parent, r.name, named)
			}
			if match.Sys != r.sys {
				t.Errorf("sys = %q, want %q", match.Sys, r.sys)
			}
			for _, k := range r.attrs {
				if _, ok := match.Attrs[k]; !ok {
					t.Errorf("attr %q missing: %v", k, match.Attrs)
				}
			}
		})
	}
}

// TestEpochAgeGrowsBetweenPublishes is the staleness regression test:
// vebo_epoch_age_ns samples grow monotonically while no new epoch is
// published, then drop once a fresh view supersedes the stale one.
func TestEpochAgeGrowsBetweenPublishes(t *testing.T) {
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 256, 13)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates[:128], 128)

	ageH := d.Metrics().Histogram("vebo_epoch_age_ns")
	sample := func() int64 {
		prevSum, prevCount := ageH.Sum(), ageH.Count()
		if _, err := d.View().BFS(Ligra, 0); err != nil {
			t.Fatal(err)
		}
		if ageH.Count() != prevCount+1 {
			t.Fatalf("query did not observe epoch age: count %d -> %d", prevCount, ageH.Count())
		}
		return ageH.Sum() - prevSum
	}

	age1 := sample()
	time.Sleep(20 * time.Millisecond)
	age2 := sample()
	if age2 <= age1 {
		t.Fatalf("epoch age not monotonic against a stale view: %v then %v",
			time.Duration(age1), time.Duration(age2))
	}

	// A new publish resets the clock: the very next query reads a younger
	// view than the stale sample above.
	applyStream(t, d, updates[128:], 128)
	age3 := sample()
	if age3 >= age2 {
		t.Fatalf("epoch age did not drop after a fresh publish: %v then %v",
			time.Duration(age2), time.Duration(age3))
	}
	if d.Metrics().Histogram("vebo_publish_lag_ns").Count() == 0 {
		t.Fatal("vebo_publish_lag_ns never observed a publish")
	}
}

// TestSpansEndpoint serves /spans off the obs handler and checks the export
// is a loadable Chrome trace carrying the run's spans, and that the runtime
// sampler feeds go_* series into /metrics on scrape.
func TestSpansEndpoint(t *testing.T) {
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 256, 17)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, d, updates, 128)
	if _, err := d.View().BFS(Ligra, 0); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.ObsHandler())
	defer srv.Close()

	trace := scrape(t, srv.URL, "/spans")
	for _, want := range []string{`"traceEvents"`, `"recordedSpans"`, `"publish"`, `"query:bfs"`, `"thread_name"`} {
		if !strings.Contains(trace, want) {
			t.Fatalf("/spans export missing %s:\n%.2000s", want, trace)
		}
	}

	metrics := scrape(t, srv.URL, "/metrics")
	for _, name := range []string{"go_goroutines ", "go_heap_alloc_bytes ", "vebo_epoch_age_ns_count", "vebo_publish_lag_ns_count", "vebo_delta_backlog "} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("/metrics scrape missing %q", name)
		}
	}
	if metricValue(t, metrics, "go_goroutines") <= 0 {
		t.Fatal("go_goroutines not sampled on scrape")
	}
}
