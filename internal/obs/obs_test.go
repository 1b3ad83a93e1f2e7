package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total"); again != c {
		t.Fatalf("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

// TestCounterRaise checks the monotone sync: Raise never lowers the count,
// and concurrent raises to the same target land it exactly once.
func TestCounterRaise(t *testing.T) {
	c := NewRegistry().Counter("c_total")
	c.Raise(5)
	c.Raise(3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d after Raise(5), Raise(3); want 5", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Raise(12)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 12 {
		t.Fatalf("counter = %d after concurrent Raise(12), want 12", got)
	}
	var nilC *Counter
	nilC.Raise(1)
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatalf("nil counter accumulated")
	}
	g := r.Gauge("x")
	g.Set(9)
	if g.Value() != 0 {
		t.Fatalf("nil gauge accumulated")
	}
	h := r.Histogram("x_ns")
	h.Observe(123)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram accumulated")
	}
	if r.Gather() != nil {
		t.Fatalf("nil registry gathered values")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestLabeledSeriesCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "sys", "ligra", "alg", "bfs")
	b := r.Counter("reqs_total", "alg", "bfs", "sys", "ligra")
	if a != b {
		t.Fatalf("label order produced distinct series")
	}
	a.Inc()
	other := r.Counter("reqs_total", "alg", "pr", "sys", "ligra")
	other.Add(2)
	vals := r.Gather()
	if len(vals) != 2 {
		t.Fatalf("Gather returned %d series, want 2", len(vals))
	}
	// Sorted by label set: alg="bfs" before alg="pr".
	if vals[0].Labels != `alg="bfs",sys="ligra"` || vals[0].Value != 1 {
		t.Fatalf("series 0 = %+v", vals[0])
	}
	if vals[1].Labels != `alg="pr",sys="ligra"` || vals[1].Value != 2 {
		t.Fatalf("series 1 = %+v", vals[1])
	}
}

func TestKindMismatchReturnsDetachedHandle(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual").Inc()
	g := r.Gauge("dual") // same key, wrong kind
	g.Set(42)            // must not panic, must not clobber the counter
	vals := r.Gather()
	if len(vals) != 1 || vals[0].Kind != "counter" || vals[0].Value != 1 {
		t.Fatalf("registered series corrupted: %+v", vals)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("sum = %d", h.Sum())
	}
	// Log-bucketing bounds the error at 2×: each estimate must land within
	// a factor of two of the true quantile.
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}} {
		got := h.Quantile(tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Fatalf("q%v = %d, want within 2x of %d", tc.q, got, tc.want)
		}
	}
	if got := h.Quantile(0); got < 1 || got > 2 {
		t.Fatalf("q0 = %d, want ~1", got)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile != 0")
	}
	h.Observe(-5) // non-positive lands in bucket 0
	h.Observe(0)
	if h.Quantile(0.99) != 0 {
		t.Fatalf("bucket-0 quantile != 0")
	}
	var big Histogram
	big.Observe(1 << 62) // near the top bucket; must not overflow
	if q := big.Quantile(0.5); q <= 0 {
		t.Fatalf("top-bucket quantile = %d", q)
	}
	if h.Mean() != -5.0/2 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("vebo_batches_total").Add(3)
	r.Gauge("vebo_epoch").Set(17)
	r.Counter("vebo_updates_total", "op", "insert").Add(9)
	h := r.Histogram("vebo_query_ns", "alg", "bfs", "sys", "ligra")
	h.Observe(1000)
	h.Observe(2000)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE vebo_batches_total counter\n",
		"vebo_batches_total 3\n",
		"# TYPE vebo_epoch gauge\n",
		"vebo_epoch 17\n",
		`vebo_updates_total{op="insert"} 9` + "\n",
		"# TYPE vebo_query_ns summary\n",
		`vebo_query_ns{alg="bfs",sys="ligra",quantile="0.5"}`,
		`vebo_query_ns_sum{alg="bfs",sys="ligra"} 3000` + "\n",
		`vebo_query_ns_count{alg="bfs",sys="ligra"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	// One TYPE header per metric name, even with several labeled series.
	if n := strings.Count(out, "# TYPE vebo_query_ns "); n != 1 {
		t.Fatalf("TYPE header count = %d", n)
	}
}

// TestConcurrentRegistry hammers get-or-create lookups, observations and
// renders from many goroutines; run under -race this is the registry's
// safety proof.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sys := []string{"ligra", "polymer", "graphgrind"}[w%3]
			for i := 0; i < 2000; i++ {
				r.Counter("ops_total", "sys", sys).Inc()
				r.Gauge("epoch").Set(int64(i))
				r.Histogram("lat_ns", "sys", sys).Observe(int64(i%1000 + 1))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			_ = r.Gather()
		}
	}()
	wg.Wait()
	var total int64
	for _, sys := range []string{"ligra", "polymer", "graphgrind"} {
		total += r.Counter("ops_total", "sys", sys).Value()
	}
	if total != 8*2000 {
		t.Fatalf("lost increments: %d", total)
	}
}
