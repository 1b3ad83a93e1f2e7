package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	vebo "repro"
	"repro/internal/obs"
)

// report accumulates one run's metrics, failure accounting, run record and
// (traced runs) the benchmark's own spans.
type report struct {
	cfg       config
	record    map[string]any
	metrics   map[string]metric
	attempted int64
	failed    int64
	wrong     []string

	// spans holds the benchmark-owned spans of a traced run: one per call
	// into a layer's public function, parented to the unit of work (round,
	// batch, epoch) that made it. Nil in untraced runs, where every span
	// call is a no-op.
	spans *obs.Spans

	heapPeak uint64
	mem      runtime.MemStats
	gcStart  runtime.MemStats
}

// spanCapacity bounds the benchmark's span ring. A 20-second traced run
// records a few thousand spans; obs.spans_dropped reports any overflow.
const spanCapacity = 1 << 14

func newReport(cfg config) *report {
	r := &report{
		cfg:     cfg,
		record:  hostRecord(cfg),
		metrics: make(map[string]metric),
	}
	if cfg.trace {
		r.spans = obs.NewSpans(spanCapacity)
	}
	return r
}

// op counts one attempted operation and, when err is non-nil, one failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note("%v", err)
	}
}

// wrongAnswer counts a completed operation whose answer failed its check.
func (r *report) wrongAnswer(format string, args ...any) {
	r.failed++
	r.note(format, args...)
}

func (r *report) note(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// set records one metric.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// root opens a top-level benchmark span (a set-up, pass, round or epoch);
// a no-op returning nil in an untraced run.
func (r *report) root(name, kind string) *obs.ActiveSpan {
	return r.spans.Start(name, kind, 0, obs.SpanContext{})
}

// start opens a span under parent. Only traced units open spans, so a nil
// parent (an untraced unit, or an untraced run) opens none.
func (r *report) start(name, kind string, parent *obs.ActiveSpan) *obs.ActiveSpan {
	if parent == nil {
		return nil
	}
	return r.spans.Start(name, kind, 0, parent.Context())
}

// sampleHeap folds the current HeapInuse into the peak. Called between
// operations, never inside a timed call.
func (r *report) sampleHeap() {
	runtime.ReadMemStats(&r.mem)
	if r.mem.HeapInuse > r.heapPeak {
		r.heapPeak = r.mem.HeapInuse
	}
}

// timedPhase marks the start of the timed phase for the GC accounting.
func (r *report) timedPhase() {
	runtime.ReadMemStats(&r.gcStart)
}

// noteShape records a workload's fixed shape: recipe, scale, input
// instances and engine topology.
func (r *report) noteShape(recipe string, scale float64) {
	r.record["recipe"] = recipe
	r.record["scale"] = scale
	r.record["instances"] = inputInstances
	r.record["topology"] = fmt.Sprintf("%dx%d", engineOpts.Sockets, engineOpts.ThreadsPerSocket)
}

// noteInput adds one input instance's size to the run record.
func (r *report) noteInput(g *vebo.Graph) {
	vs, _ := r.record["vertices"].([]int)
	es, _ := r.record["edges"].([]int64)
	r.record["vertices"] = append(vs, g.NumVertices())
	r.record["edges"] = append(es, g.NumEdges())
}

// setCommon records the metrics every workload reports the same way: the
// heap peak, the success rate, and the traced run's runtime and obs layer
// figures.
func (r *report) setCommon() {
	r.sampleHeap()
	r.set("heap_peak_mb", "MB", float64(r.heapPeak)/(1<<20))
	rate := 0.0
	if r.attempted > 0 {
		rate = 1 - float64(r.failed)/float64(r.attempted)
	}
	r.set("success_rate", "ratio", rate)
	r.record["error_rate"] = 1 - rate
	runtime.ReadMemStats(&r.mem)
	r.set("runtime.gc_pause_ms", "ms", float64(r.mem.PauseTotalNs-r.gcStart.PauseTotalNs)/1e6)
	r.set("runtime.gc_cycles", "count", float64(r.mem.NumGC-r.gcStart.NumGC))
}

// imbalance is the balance of one ordering: Δ(n), δ(n), and the totals
// and partition count they are relative to.
type imbalance struct {
	edgeSpread, vertSpread, edges, verts int64
	parts                                int
}

// setImbalance records the balance of the orderings in force at the end,
// one per input instance, as mean ratios that read 1.0 at perfect
// balance: one plus Δ(n) (δ(n)) over the mean per-partition edge (vertex)
// count. The raw counts go to the record.
func (r *report) setImbalance(bs []imbalance) {
	var e, v float64
	var de, dv []int64
	n := 0
	for _, b := range bs {
		if b.parts == 0 {
			continue // an instance no pass reached
		}
		n++
		e += 1 + float64(b.edgeSpread)*float64(b.parts)/float64(b.edges)
		v += 1 + float64(b.vertSpread)*float64(b.parts)/float64(b.verts)
		de = append(de, b.edgeSpread)
		dv = append(dv, b.vertSpread)
		r.record["partitions"] = b.parts
	}
	r.set("edge_imbalance", "ratio", e/float64(n))
	r.set("vertex_imbalance", "ratio", v/float64(n))
	r.record["delta_edges"] = de
	r.record["delta_vertices"] = dv
}

// setSeries records <prefix>_p50_ms and <prefix>_tail_ms from xs, noting
// the tail percentile and sample count in the record.
func (r *report) setSeries(prefix string, xs []float64, tail float64) {
	r.set(prefix+"_p50_ms", "ms", quantile(xs, 0.5))
	r.set(prefix+"_tail_ms", "ms", quantile(xs, tail))
	r.record[prefix+"_samples"] = len(xs)
	r.record[prefix+"_tail_pct"] = 100 * tail
	if n := float64(len(xs)); n*(1-tail) < 10 && tail < 1 {
		r.record[prefix+"_tail_short"] = true
	}
}

// setQuery records query_p50_ms as the median, over rounds (epochs), of
// the mean call latency within each, and query_tail_ms as a tail
// percentile of the pooled calls. The pooled calls mix algorithms of very
// different cost, so their median would fall in a gap between two
// algorithms' clusters and jump with the smallest shift; the per-round
// mean does not.
func (r *report) setQuery(unitMeans, calls []float64, tail float64) {
	r.set("query_p50_ms", "ms", quantile(unitMeans, 0.5))
	r.set("query_tail_ms", "ms", quantile(calls, tail))
	r.record["query_samples"] = len(calls)
	r.record["query_rounds"] = len(unitMeans)
	r.record["query_tail_pct"] = 100 * tail
}

// writeTrace exports the benchmark's spans as Chrome Trace Event JSON.
func (r *report) writeTrace(path string) error {
	if r.spans == nil {
		return nil
	}
	r.set("obs.spans_dropped", "count", float64(r.spans.Dropped())+r.metrics["obs.spans_dropped"].Value)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	werr := r.spans.WriteChromeTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("trace export %s: %w", path, werr)
	}
	r.record["trace_file"] = path
	return nil
}

// overhead records obs.trace_overhead_pct: the traced units' median
// minus the untraced units' median, as a percentage of the latter. The
// traced run alternates traced and untraced units so both see the same
// history.
func (r *report) overhead(traced, untraced []float64) {
	u := quantile(untraced, 0.5)
	if u > 0 {
		r.set("obs.trace_overhead_pct", "%", 100*(quantile(traced, 0.5)-u)/u)
	}
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (0 for an empty series; p = 1 is the maximum).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
