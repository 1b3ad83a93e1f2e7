package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestSpansRingOverflowOrdering(t *testing.T) {
	s := NewSpans(4)
	for i := 0; i < 10; i++ {
		s.Record(Span{Name: "q", Kind: "query", Dur: time.Duration(i)})
	}
	if got := s.Recorded(); got != 10 {
		t.Fatalf("Recorded() = %d, want 10", got)
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	snap := s.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot() returned %d spans, want 4", len(snap))
	}
	// Oldest-first completion order: the newest 4 of the 10 recorded.
	for i, sp := range snap {
		if want := SpanID(7 + i); sp.ID != want {
			t.Errorf("Snapshot()[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
}

func TestSpansPartialRingKeepsOrder(t *testing.T) {
	s := NewSpans(8)
	want := []Span{
		{Name: "repair", Kind: "maintain", Cause: "threshold-trip"},
		{Name: "rebuild", Kind: "maintain", Cause: "rotation-stall"},
		{Name: "q", Kind: "query"},
	}
	for _, sp := range want {
		s.Record(sp)
	}
	snap := s.Snapshot()
	if len(snap) != 3 || s.Dropped() != 0 {
		t.Fatalf("Snapshot len=%d Dropped=%d, want 3 and 0", len(snap), s.Dropped())
	}
	for i, sp := range snap {
		if id := SpanID(1 + i); sp.ID != id {
			t.Errorf("Snapshot()[%d].ID = %d, want %d", i, sp.ID, id)
		}
		if sp.Name != want[i].Name || sp.Cause != want[i].Cause {
			t.Errorf("Snapshot()[%d] = %s/%s, want %s/%s", i, sp.Name, sp.Cause, want[i].Name, want[i].Cause)
		}
	}
}

func TestSpansNilSafety(t *testing.T) {
	var s *Spans
	if a := s.Start("x", "ingest", 0, SpanContext{}); a != nil {
		t.Fatalf("nil.Start returned %v, want nil", a)
	}
	if id := s.Record(Span{Name: "x"}); id != 0 {
		t.Fatalf("nil.Record returned %d, want 0", id)
	}
	if s.Recorded() != 0 || s.Dropped() != 0 || s.Snapshot() != nil {
		t.Fatal("nil collector counters/snapshot not zero")
	}
	if err := s.WriteChromeTrace(io.Discard); err != nil {
		t.Fatalf("nil.WriteChromeTrace: %v", err)
	}

	var a *ActiveSpan
	if ctx := a.Context(); ctx != (SpanContext{}) {
		t.Fatalf("nil ActiveSpan Context = %+v, want zero", ctx)
	}
	// The chained mutators and End must all tolerate nil.
	a.Attr("k", 1).SetCause("c").SetSys("s").SetEpoch(2).End()
}

func TestActiveSpanLifecycle(t *testing.T) {
	s := NewSpans(8)
	parent := s.Start("batch", "ingest", 3, SpanContext{})
	if parent.Context().ID == 0 {
		t.Fatal("Start did not assign an ID before End")
	}
	child := s.Start("repair", "maintain", 3, parent.Context())
	child.Attr("swaps", 7).SetCause("threshold-trip").End()
	parent.SetEpoch(4).Attr("applied", 64).End()

	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(snap))
	}
	// Completion order: the child ended first.
	c, p := snap[0], snap[1]
	if c.Name != "repair" || p.Name != "batch" {
		t.Fatalf("completion order wrong: got %q then %q", c.Name, p.Name)
	}
	if c.Parent != p.ID {
		t.Errorf("child.Parent = %d, want parent ID %d", c.Parent, p.ID)
	}
	if c.Attrs["swaps"] != 7 || c.Cause != "threshold-trip" {
		t.Errorf("child attrs/cause not retained: %+v", c)
	}
	if p.Epoch != 4 {
		t.Errorf("SetEpoch not applied: epoch = %d", p.Epoch)
	}
	if c.Dur < 0 || p.Dur < 0 {
		t.Errorf("negative durations: %v %v", c.Dur, p.Dur)
	}
}

func TestSpansRecordBackdatesStart(t *testing.T) {
	s := NewSpans(2)
	before := time.Now()
	s.Record(Span{Name: "q", Kind: "query", Dur: time.Second})
	sp := s.Snapshot()[0]
	if sp.Start.After(before) {
		t.Errorf("Record did not back-date Start by Dur: start %v, recorded at %v", sp.Start, before)
	}
	fixed := time.Unix(100, 0)
	s.Record(Span{Name: "q2", Kind: "query", Start: fixed, Dur: time.Second})
	if got := s.Snapshot()[1].Start; !got.Equal(fixed) {
		t.Errorf("Record overwrote explicit Start: got %v, want %v", got, fixed)
	}
}

func TestSpansConcurrentEmitAndExport(t *testing.T) {
	s := NewSpans(64)
	const writers = 4
	const perWriter = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(epoch int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%2 == 0 {
					a := s.Start("batch", "ingest", epoch, SpanContext{})
					a.Attr("applied", int64(i)).End()
				} else {
					s.Record(Span{Name: "q", Kind: "query", Epoch: epoch, Dur: time.Microsecond})
				}
			}
		}(int64(w))
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Snapshot()
			if err := s.WriteChromeTrace(io.Discard); err != nil {
				t.Errorf("WriteChromeTrace: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := s.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded() = %d, want %d", got, writers*perWriter)
	}
	// The full ring retains exactly its capacity, each span once.
	snap := s.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("Snapshot() retained %d spans, want 64", len(snap))
	}
	seen := make(map[SpanID]bool, len(snap))
	for _, sp := range snap {
		if seen[sp.ID] {
			t.Fatalf("span %d retained twice", sp.ID)
		}
		seen[sp.ID] = true
	}
}

// chromeTrace mirrors the exporter's output shape for decoding in tests.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   string         `json:"id"`
		BP   string         `json:"bp"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
	Recorded        uint64 `json:"recordedSpans"`
	Dropped         uint64 `json:"droppedSpans"`
}

func TestWriteChromeTraceGolden(t *testing.T) {
	s := NewSpans(8)
	base := time.Unix(1000, 0)
	pubID := s.Record(Span{
		Name: "publish", Kind: "publish", Epoch: 5,
		Start: base, Dur: 2 * time.Millisecond,
		Attrs: map[string]int64{"delta_backlog": 3},
	})
	s.Record(Span{
		Name: "query:bfs", Kind: "query", Cause: "full", Sys: "ligra", Epoch: 5,
		Parent: pubID, Start: base.Add(10 * time.Millisecond), Dur: time.Millisecond,
	})

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if tr.DisplayTimeUnit != "ms" || tr.Recorded != 2 || tr.Dropped != 0 {
		t.Fatalf("header wrong: unit=%q recorded=%d dropped=%d", tr.DisplayTimeUnit, tr.Recorded, tr.Dropped)
	}

	var xEvents, flows, meta int
	var sawFlowStart, sawFlowEnd bool
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			xEvents++
			if ev.Dur == nil {
				t.Errorf("X event %q missing dur", ev.Name)
			}
			if ev.Name == "query:bfs" {
				// ts is microseconds; the query started 10ms after base.
				want := float64(base.Add(10*time.Millisecond).UnixNano()) / 1e3
				if ev.Ts != want {
					t.Errorf("query ts = %v, want %v", ev.Ts, want)
				}
				if ev.Args["parent_id"] != float64(pubID) {
					t.Errorf("query parent_id = %v, want %d", ev.Args["parent_id"], pubID)
				}
				if ev.Args["cause"] != "full" || ev.Args["sys"] != "ligra" {
					t.Errorf("query args missing cause/sys: %v", ev.Args)
				}
			}
			if ev.Name == "publish" && ev.Args["delta_backlog"] != float64(3) {
				t.Errorf("publish attrs not exported: %v", ev.Args)
			}
		case "s":
			flows++
			sawFlowStart = true
			// The flow must originate inside the parent slice: publish runs
			// [base, base+2ms] but the query starts at +10ms, so the start
			// point is clamped to the slice end.
			hi := float64(base.Add(2*time.Millisecond).UnixNano()) / 1e3
			if ev.Ts != hi {
				t.Errorf("flow start ts = %v, want clamped %v", ev.Ts, hi)
			}
		case "f":
			flows++
			sawFlowEnd = true
			if ev.BP != "e" {
				t.Errorf("flow end bp = %q, want \"e\"", ev.BP)
			}
		}
	}
	if xEvents != 2 {
		t.Errorf("X events = %d, want 2", xEvents)
	}
	if flows != 2 || !sawFlowStart || !sawFlowEnd {
		t.Errorf("flow pair incomplete: %d flow events (s=%v f=%v)", flows, sawFlowStart, sawFlowEnd)
	}
	// process_name + the two touched tracks (publish, query).
	if meta != 3 {
		t.Errorf("metadata events = %d, want 3", meta)
	}
}

func TestWriteChromeTraceOrphanParentNoFlow(t *testing.T) {
	s := NewSpans(2)
	// Parent ID 99 was never retained: the slice must still export, with no
	// dangling flow arrow.
	s.Record(Span{Name: "q", Kind: "query", Parent: 99, Dur: time.Millisecond})
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "s" || ev.Ph == "f" {
			t.Fatalf("orphan parent produced flow event: %+v", ev)
		}
	}
}

func TestSpanTracks(t *testing.T) {
	cases := []struct {
		kind string
		tid  int
	}{
		{"ingest", 1}, {"maintain", 1}, {"publish", 2}, {"build", 3}, {"query", 4}, {"future", 4},
	}
	for _, c := range cases {
		if tid, _ := spanTrack(c.kind); tid != c.tid {
			t.Errorf("spanTrack(%q) tid = %d, want %d", c.kind, tid, c.tid)
		}
	}
}

// The tests below hold the span ring to the epoch-lifecycle record's
// contract: bounded retention with drop accounting, ID ordering, the
// per-epoch story as a Snapshot filter, nil safety, JSON export and
// concurrent recording.

// spansForEpoch is the "why did epoch E do that?" query: the retained
// spans pinned to epoch, in span-ID order.
func spansForEpoch(s *Spans, epoch int64) []Span {
	var out []Span
	for _, sp := range s.Snapshot() {
		if sp.Epoch == epoch {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func TestTracerRingOverflow(t *testing.T) {
	s := NewSpans(4)
	for i := 1; i <= 10; i++ {
		s.Start("batch", "ingest", int64(i), SpanContext{}).End()
	}
	if got := s.Recorded(); got != 10 {
		t.Fatalf("recorded = %d", got)
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("dropped = %d", got)
	}
	snap := s.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d spans", len(snap))
	}
	// The newest capacity spans survive, oldest first, with contiguous
	// monotonic IDs.
	for i, sp := range snap {
		wantID := SpanID(7 + i)
		if sp.ID != wantID || sp.Epoch != int64(wantID) {
			t.Fatalf("span %d = id %d epoch %d, want id %d", i, sp.ID, sp.Epoch, wantID)
		}
		if sp.Start.IsZero() {
			t.Fatalf("span %d has zero start", i)
		}
	}
}

func TestTracerPartialRing(t *testing.T) {
	s := NewSpans(8)
	s.Start("repair", "maintain", 0, SpanContext{}).SetCause("threshold-trip").End()
	s.Start("rebuild", "maintain", 0, SpanContext{}).SetCause("rotation-stall").End()
	if s.Dropped() != 0 {
		t.Fatalf("dropped = %d", s.Dropped())
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].ID != 1 || snap[1].ID != 2 {
		t.Fatalf("spans = %+v", snap)
	}
	if snap[0].Name != "repair" || snap[1].Cause != "rotation-stall" {
		t.Fatalf("spans out of order: %+v", snap)
	}
}

func TestEventsForEpoch(t *testing.T) {
	s := NewSpans(16)
	s.Record(Span{Epoch: 5, Name: "repair", Kind: "maintain", Cause: "threshold-trip"})
	s.Record(Span{Epoch: 5, Name: "rebuild", Kind: "maintain", Cause: "repair-shortfall"})
	s.Record(Span{Epoch: 6, Name: "batch", Kind: "ingest"})
	story := spansForEpoch(s, 5)
	if len(story) != 2 || story[0].Name != "repair" || story[1].Name != "rebuild" {
		t.Fatalf("epoch 5 spans = %+v", story)
	}
	if got := spansForEpoch(s, 99); got != nil {
		t.Fatalf("epoch 99 spans = %+v", got)
	}
}

func TestNilTracer(t *testing.T) {
	var s *Spans
	s.Start("batch", "ingest", 0, SpanContext{}).End() // must not panic
	s.Record(Span{Name: "batch", Kind: "ingest"})
	if s.Recorded() != 0 || s.Dropped() != 0 || s.Snapshot() != nil {
		t.Fatalf("nil collector retained state")
	}
	if err := s.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	s := NewSpans(4)
	s.Start("grow", "maintain", 3, SpanContext{}).SetCause("growth-spill").Attr("admitted", 7).End()
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if ct.Recorded != 1 || ct.Dropped != 0 {
		t.Fatalf("recorded/dropped = %d/%d", ct.Recorded, ct.Dropped)
	}
	var slices int
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		slices++
		if ev.Name != "grow" || ev.Cat != "maintain" || ev.Args["cause"] != "growth-spill" ||
			ev.Args["admitted"] != float64(7) || ev.Args["epoch"] != float64(3) {
			t.Fatalf("span event = %+v", ev)
		}
	}
	if slices != 1 {
		t.Fatalf("exported %d span slices, want 1", slices)
	}
}

// TestConcurrentEmit exercises the span ring from many goroutines; under
// -race this is the ring's safety proof.
func TestConcurrentEmit(t *testing.T) {
	s := NewSpans(64)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(writer int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Start("batch", "ingest", writer, SpanContext{}).End()
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.Snapshot()
			_ = s.Dropped()
		}
	}()
	wg.Wait()
	if got := s.Recorded(); got != writers*perWriter {
		t.Fatalf("recorded = %d", got)
	}
	if got := s.Dropped(); got != writers*perWriter-64 {
		t.Fatalf("dropped = %d", got)
	}
	snap := s.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("retained %d", len(snap))
	}
	// IDs are unique and in range, and each writer's spans keep the order
	// in which that writer recorded them.
	last := make(map[int64]SpanID, writers)
	for i, sp := range snap {
		if sp.ID == 0 || sp.ID > writers*perWriter {
			t.Fatalf("span %d has out-of-range id %d", i, sp.ID)
		}
		if prev, ok := last[sp.Epoch]; ok && sp.ID <= prev {
			t.Fatalf("writer %d: id %d retained after %d", sp.Epoch, sp.ID, prev)
		}
		last[sp.Epoch] = sp.ID
	}
}
