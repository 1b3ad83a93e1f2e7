package dynamic

import (
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// instrumented builds a dynamic graph with a live registry and span
// collector, the configuration every lifecycle regression below scrapes.
func instrumented(t *testing.T, g *graph.Graph, cfg Config) (*Graph, *obs.Registry, *obs.Spans) {
	t.Helper()
	reg := obs.NewRegistry()
	sp := obs.NewSpans(256)
	cfg.Metrics = reg
	cfg.Spans = sp
	d, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, reg, sp
}

// findSpan returns the last span named name (with the given cause, when
// non-empty).
func findSpan(spans []obs.Span, name, cause string) *obs.Span {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == name && (cause == "" || spans[i].Cause == cause) {
			return &spans[i]
		}
	}
	return nil
}

// spansForEpoch is the "why did epoch E do that?" query: the retained spans
// pinned to one epoch, in completion order.
func spansForEpoch(spans []obs.Span, epoch int64) []obs.Span {
	var out []obs.Span
	for _, sp := range spans {
		if sp.Epoch == epoch {
			out = append(out, sp)
		}
	}
	return out
}

// TestTraceThresholdTrip pins the first required cause annotation: a
// Δ(n)-gated repair must leave a "repair" span with cause "threshold-trip"
// carrying the before/after imbalances, so the epoch's story is readable
// from the spans alone.
func TestTraceThresholdTrip(t *testing.T) {
	const D = 10
	g := hostileDegreeGraph(t)
	d, reg, sp := instrumented(t, g, Config{
		Partitions:               3,
		RebuildThreshold:         D/2 + 1,
		DisableAdaptiveThreshold: true,
	})
	// Same overload as TestSwapRepairRotationFallback: one coarse-class
	// vertex gains exactly D in-edges, which the pair search cannot fix but
	// a three-way rotation can.
	qmid := int(d.PartitionOf(8))
	X := -1
	var target, qv graph.VertexID
	for v := graph.VertexID(0); v < 8; v++ {
		switch int(d.PartitionOf(v)) {
		case qmid:
			qv = v
		default:
			if X < 0 {
				X = int(d.PartitionOf(v))
			}
			if int(d.PartitionOf(v)) == X {
				target = v
			}
		}
	}
	var batch []graph.EdgeUpdate
	for i := 0; i < D; i++ {
		batch = append(batch, graph.EdgeUpdate{Src: graph.VertexID(10 + i), Dst: target})
	}
	batch = append(batch, graph.EdgeUpdate{Src: 20, Dst: qv})
	res, err := d.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.Rebuilt {
		t.Fatalf("expected a pure repair batch, got %+v", res)
	}

	spans := sp.Snapshot()
	rs := findSpan(spans, "repair", "threshold-trip")
	if rs == nil {
		t.Fatalf("no repair/threshold-trip span: %+v", spans)
	}
	if rs.Epoch != d.Epoch() {
		t.Fatalf("repair span epoch %d, graph epoch %d", rs.Epoch, d.Epoch())
	}
	if rs.Attrs["delta_before"] <= rs.Attrs["threshold"] {
		t.Fatalf("repair span claims gate did not trip: %+v", rs.Attrs)
	}
	if rs.Attrs["delta_after"] >= rs.Attrs["delta_before"] {
		t.Fatalf("repair span shows no improvement: %+v", rs.Attrs)
	}
	if rs.Attrs["rotations"] == 0 || rs.Attrs["stalled"] != 0 {
		t.Fatalf("hostile-degree repair should rotate without stalling: %+v", rs.Attrs)
	}
	if rs.Dur <= 0 {
		t.Fatalf("repair span missing wall-clock duration")
	}
	// The batch span closes the epoch.
	if bs := findSpan(spans, "batch", ""); bs == nil || bs.Attrs["repaired"] != 1 {
		t.Fatalf("batch span missing or not marked repaired: %+v", bs)
	}

	// Registry counters mirror the spans.
	if got := reg.Counter("vebo_repairs_total").Value(); got != 1 {
		t.Fatalf("vebo_repairs_total = %d", got)
	}
	if got := reg.Counter("vebo_rotation_search_total", "result", "attempt").Value(); got == 0 {
		t.Fatalf("rotation attempts not counted")
	}
	st := d.Stats()
	if st.RotationAttempts == 0 || st.RotationStalls != 0 {
		t.Fatalf("rotation stats = %+v", st)
	}
}

// TestTraceRotationStall pins the second required cause annotation: when the
// pair search finds nothing and no intermediate partition exists (P=2), the
// repair stalls and the forced full rebuild must be annotated
// "rotation-stall" — the spans alone answer "why did epoch E rebuild
// instead of patch".
func TestTraceRotationStall(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 1, Dst: 0, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	d, reg, sp := instrumented(t, g, Config{
		Partitions:               2,
		RebuildThreshold:         1,
		DisableAdaptiveThreshold: true,
	})
	// Pile all new mass on vertex 0: every candidate transfer is 0 or the
	// whole gap, so no swap strictly improves, and with P=2 there is no
	// intermediate partition to rotate through.
	var batch []graph.EdgeUpdate
	for i := 0; i < 10; i++ {
		batch = append(batch, graph.EdgeUpdate{Src: graph.VertexID(1 + i%3), Dst: 0})
	}
	res, err := d.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Fatalf("scenario no longer forces a rebuild: %+v", res)
	}

	spans := sp.Snapshot()
	reb := findSpan(spans, "rebuild", "")
	if reb == nil {
		t.Fatalf("no rebuild span: %+v", spans)
	}
	if reb.Cause != "rotation-stall" {
		t.Fatalf("rebuild cause = %q, want rotation-stall", reb.Cause)
	}
	if reb.Epoch != d.Epoch() || reb.Dur <= 0 {
		t.Fatalf("rebuild span epoch %d (graph epoch %d), dur %v", reb.Epoch, d.Epoch(), reb.Dur)
	}
	// The full epoch story: the spans of epoch E alone explain the rebuild —
	// a gated repair that stalled, then the rebuild naming the stall.
	story := spansForEpoch(spans, reb.Epoch)
	rep := findSpan(story, "repair", "threshold-trip")
	if rep == nil || rep.Attrs["stalled"] != 1 {
		t.Fatalf("epoch %d story lacks a stalled repair: %+v", reb.Epoch, story)
	}
	if rep.ID >= reb.ID {
		t.Fatalf("repair (span %d) not ordered before rebuild (span %d)", rep.ID, reb.ID)
	}

	if got := reg.Counter("vebo_rebuilds_total", "cause", "rotation-stall").Value(); got != 1 {
		t.Fatalf("vebo_rebuilds_total{cause=rotation-stall} = %d", got)
	}
	if st := d.Stats(); st.RotationStalls == 0 {
		t.Fatalf("RotationStalls = 0, want > 0 (stats: %+v)", st)
	}
}

// TestTraceGrowthSpill pins the third required cause annotation: admissions
// served entirely from reserved headroom slots are annotated
// "growth-headroom"; a batch forced through a relabeling epoch because every
// segment's headroom was exhausted is "growth-spill" and bumps
// vebo_headroom_spill_total.
func TestTraceGrowthSpill(t *testing.T) {
	g, err := graph.FromEdges(12, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
		{Src: 4, Dst: 5, Weight: 1}, {Src: 6, Dst: 7, Weight: 1},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	d, reg, sp := instrumented(t, g, Config{Partitions: 4})
	if first := d.Grow(3); first != 12 {
		t.Fatalf("first admitted ID %d, want 12", first)
	}
	gs := findSpan(sp.Snapshot(), "grow", "")
	if gs == nil {
		t.Fatalf("no grow span: %+v", sp.Snapshot())
	}
	if gs.Cause != "growth-headroom" {
		t.Fatalf("grow cause = %q, want growth-headroom (attrs=%+v)", gs.Cause, gs.Attrs)
	}
	if gs.Epoch != d.Epoch() || gs.Dur <= 0 {
		t.Fatalf("grow span epoch %d (graph epoch %d), dur %v", gs.Epoch, d.Epoch(), gs.Dur)
	}
	if gs.Attrs["admitted"] != 3 || gs.Attrs["vertices"] != 15 || gs.Attrs["spills"] != 0 {
		t.Fatalf("grow span attrs = %+v", gs.Attrs)
	}
	free, capacity := d.Headroom()
	if capacity == 0 || gs.Attrs["headroom_free"] != free {
		t.Fatalf("Headroom() = (%d, %d), span free %d", free, capacity, gs.Attrs["headroom_free"])
	}
	// The conversion of a compact lineage to a slotted one is not a spill.
	if got := reg.Counter("vebo_headroom_spill_total").Value(); got != 0 {
		t.Fatalf("vebo_headroom_spill_total = %d after headroom admissions", got)
	}
	// Per-partition slot gauges mirror the free headroom.
	var gaugeFree int64
	for p := 0; p < d.Partitions(); p++ {
		gaugeFree += reg.Gauge("vebo_headroom_slots", "partition", strconv.Itoa(p)).Value()
	}
	if gaugeFree != free {
		t.Fatalf("vebo_headroom_slots sum = %d, Headroom() free = %d", gaugeFree, free)
	}

	// Minimal headroom (one slot per partition, no proportional term) forces
	// an exhaustion spill mid-batch: two admissions fill the slots, the third
	// triggers a relabeling epoch.
	g2, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	d2, reg2, sp2 := instrumented(t, g2, Config{Partitions: 2, MinHeadroom: 1, HeadroomFrac: -1})
	d2.Grow(3)
	gs2 := findSpan(sp2.Snapshot(), "grow", "")
	if gs2 == nil || gs2.Cause != "growth-spill" {
		t.Fatalf("exhausted grow cause = %+v, want growth-spill", gs2)
	}
	if gs2.Attrs["spills"] != 1 {
		t.Fatalf("spill grow span attrs = %+v", gs2.Attrs)
	}
	if ss := findSpan(sp2.Snapshot(), "spill", "headroom-exhausted"); ss == nil || ss.ID >= gs2.ID {
		t.Fatalf("no headroom-exhausted spill span ordered before the grow: %+v", ss)
	}
	if got := reg2.Counter("vebo_headroom_spill_total").Value(); got != 1 {
		t.Fatalf("vebo_headroom_spill_total = %d, want 1", got)
	}
	if st := d2.Stats(); st.HeadroomSpills != 1 {
		t.Fatalf("Stats().HeadroomSpills = %d, want 1", st.HeadroomSpills)
	}
}

// TestTraceGaugesTrackState checks that the registry gauges published after
// every batch agree with the structure's own accessors.
func TestTraceGaugesTrackState(t *testing.T) {
	g := hostileDegreeGraph(t)
	d, reg, _ := instrumented(t, g, Config{Partitions: 3})
	if _, err := d.ApplyBatch([]graph.EdgeUpdate{
		{Src: 11, Dst: 0}, {Src: 12, Dst: 1}, {Src: 13, Dst: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Gauge("vebo_epoch").Value(), d.Epoch(); got != want {
		t.Fatalf("vebo_epoch = %d, want %d", got, want)
	}
	if got, want := reg.Gauge("vebo_vertices").Value(), int64(d.NumVertices()); got != want {
		t.Fatalf("vebo_vertices = %d, want %d", got, want)
	}
	if got, want := reg.Gauge("vebo_live_edges").Value(), d.NumEdges(); got != want {
		t.Fatalf("vebo_live_edges = %d, want %d", got, want)
	}
	if got, want := reg.Gauge("vebo_edge_imbalance").Value(), d.EdgeImbalance(); got != want {
		t.Fatalf("vebo_edge_imbalance = %d, want %d", got, want)
	}
}
