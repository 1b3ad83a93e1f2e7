package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the
// printed metric lists in step: same names, units, directions and
// workloads, in the same order.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.kind, i, m, d)
			}
		}
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	r := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if r.Q1 != 2.75 || r.Median != 5.5 || r.Q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", r.Q1, r.Median, r.Q3)
	}
	if want := 5.5 / 5.5; math.Abs(r.IQRShare-want) > 1e-12 {
		t.Fatalf("iqr share %v, want %v", r.IQRShare, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.75, 3.25}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty series should read 0")
	}
}

// TestAttributeBatch splits a synthetic IngestBatch: a grow span before
// the batch span, a repair inside it, then the publish span.
func TestAttributeBatch(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.Span{
		{Kind: "ingest", Name: "batch", Start: at(-50), Dur: 10 * time.Millisecond}, // an earlier batch
		{Kind: "maintain", Name: "grow", Start: at(1), Dur: 2 * time.Millisecond},
		{Kind: "ingest", Name: "batch", Start: at(4), Dur: 10 * time.Millisecond},
		{Kind: "maintain", Name: "repair", Start: at(6), Dur: 3 * time.Millisecond},
		{Kind: "publish", Name: "publish", Start: at(15), Dur: 4 * time.Millisecond,
			Attrs: map[string]int64{"delta_backlog": 77}},
	}
	st := attributeBatch(spans, t0, 20*time.Millisecond)
	want := batchSplit{apply: 7 * time.Millisecond, maintain: 5 * time.Millisecond,
		publish: 4 * time.Millisecond, unattributed: 4 * time.Millisecond, backlog: 77}
	if st != want {
		t.Fatalf("split %+v, want %+v", st, want)
	}
}
