package vebo

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// scrape fetches one endpoint off the observability handler.
func scrape(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts an unlabeled sample value from Prometheus text.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape:\n%s", name, text)
	return 0
}

// TestObsHandlerLiveScrape is the serve-mode integration test: a Dynamic
// under concurrent ingest and queries — BFS and PageRank on all three
// framework models — exposes /metrics, and successive scrapes show the epoch
// counter, the ingest latency series and every per-(algorithm, system) query
// latency series advancing.
func TestObsHandlerLiveScrape(t *testing.T) {
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 1024, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.ObsHandler())
	defer srv.Close()

	first := scrape(t, srv.URL, "/metrics")
	if ct := "text/plain"; !strings.Contains(first, "vebo_epoch") {
		t.Fatalf("first scrape (%s) lacks vebo_epoch:\n%s", ct, first)
	}
	epoch0 := metricValue(t, first, "vebo_epoch")

	// Ingest on one goroutine, query on another, scrape from the test body —
	// the topology `vebo serve` runs.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		const batch = 128
		for lo := 0; lo < len(updates); lo += batch {
			hi := min(lo+batch, len(updates))
			if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			for _, sys := range []System{Ligra, Polymer, GraphGrind} {
				if _, err := d.View().BFS(sys, 0); err != nil {
					errs <- err
					return
				}
				if _, err := d.View().PageRank(sys, 10); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	second := scrape(t, srv.URL, "/metrics")
	if epoch1 := metricValue(t, second, "vebo_epoch"); epoch1 <= epoch0 {
		t.Fatalf("vebo_epoch did not advance: %d -> %d", epoch0, epoch1)
	}
	if got := metricValue(t, second, "vebo_batches_total"); got != 8 {
		t.Fatalf("vebo_batches_total = %d, want 8", got)
	}
	// One ingest latency observation per batch.
	if got := metricValue(t, second, "vebo_batch_ns_count"); got != 8 {
		t.Fatalf("vebo_batch_ns_count = %d, want 8", got)
	}
	// Every queried (alg, sys) latency summary must be populated with its
	// quantiles plus sum/count.
	for _, alg := range []string{"bfs", "pagerank"} {
		for _, sys := range []string{"ligra", "polymer", "graphgrind"} {
			labels := `alg="` + alg + `",sys="` + sys + `"`
			for _, want := range []string{
				`vebo_query_ns{` + labels + `,quantile="0.5"}`,
				`vebo_query_ns{` + labels + `,quantile="0.99"}`,
				`vebo_query_ns_count{` + labels + `} 3`,
				`vebo_queries_total{` + labels + `} 3`,
			} {
				if !strings.Contains(second, want) {
					t.Fatalf("scrape missing %q:\n%s", want, second)
				}
			}
		}
	}

	// /metrics.json round-trips, and /spans serves the epoch-lifecycle
	// record: a batch span whose publish child is retained in the same
	// export.
	var series []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	}
	if err := json.Unmarshal([]byte(scrape(t, srv.URL, "/metrics.json")), &series); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if len(series) == 0 {
		t.Fatalf("/metrics.json empty")
	}
	var export struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(scrape(t, srv.URL, "/spans")), &export); err != nil {
		t.Fatalf("/spans invalid: %v", err)
	}
	batches := make(map[float64]bool)
	for _, ev := range export.TraceEvents {
		if ev.Ph == "X" && ev.Name == "batch" {
			batches[ev.Args["span_id"].(float64)] = true
		}
	}
	linked := false
	for _, ev := range export.TraceEvents {
		if ev.Ph == "X" && ev.Name == "publish" {
			if parent, ok := ev.Args["parent_id"].(float64); ok && batches[parent] {
				linked = true
				break
			}
		}
	}
	if len(batches) == 0 || !linked {
		t.Fatalf("/spans holds %d batch spans, publish child retained: %v", len(batches), linked)
	}

	// Span-ring overwrites surface as vebo_spans_dropped_total, advanced to
	// the ring's overwrite count on every scrape: none yet on this short
	// run, then one per span filed past a full ring.
	if got := metricValue(t, second, "vebo_spans_dropped_total"); got != 0 || d.Spans().Dropped() != 0 {
		t.Fatalf("vebo_spans_dropped_total = %d before the ring filled (ring dropped %d)", got, d.Spans().Dropped())
	}
	for i := 0; i < obs.DefaultSpanCapacity; i++ {
		d.Spans().Record(obs.Span{Name: "filler", Kind: "test"})
	}
	dropped := int64(d.Spans().Dropped())
	if dropped == 0 {
		t.Fatal("filling the ring past capacity dropped no spans")
	}
	if got := metricValue(t, scrape(t, srv.URL, "/metrics"), "vebo_spans_dropped_total"); got != dropped {
		t.Fatalf("vebo_spans_dropped_total = %d, want the ring's %d overwrites", got, dropped)
	}
}
