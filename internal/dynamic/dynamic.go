// Package dynamic keeps a graph and its VEBO ordering live under a stream of
// edge insertions and deletions, so that engines never pay a full
// O(n log P) reorder plus O(m) CSR/CSC rebuild per update batch.
//
// The design has four parts:
//
//   - Delta-log storage. The last compacted graph.Graph is kept immutable;
//     inserted edges and resolved deletions accumulate in two append-only
//     logs (the writer also indexes them by (src,dst,weight) to resolve
//     later deletions). Snapshot materializes the surviving edge set into a
//     fresh CSR/CSC graph on demand (cached per mutation epoch) and Compact
//     promotes that snapshot to the new base. Freeze captures the same
//     state immutably in O(1) — the base plus the two logs' prefixes — so
//     concurrent readers can materialize a snapshot without touching the
//     live structures.
//
//   - Incremental balance accounting. Per-partition in-edge counts (the
//     paper's w[p]) and vertex counts (u[p]) are updated in O(1) per edge
//     update, so the tracked edge imbalance Δ(n) and vertex imbalance δ(n)
//     are always available without touching the graph.
//
//   - Incremental ordering maintenance, gated on the edge imbalance. The
//     gate (Δ(n) over the effective rebuild threshold, which scales with the
//     graph's degree granularity unless disabled) triggers the
//     placement-preserving swap repair: a vertex of the most-loaded
//     partition trades places — partition AND new ID — with a lower-degree
//     vertex of the least-loaded one, so per-partition vertex counts, the
//     segment boundaries of the ordering, and the new IDs of every unmoved
//     vertex are all invariant. When no improving pair exists, a three-way
//     rotation through an intermediate partition is tried before giving up.
//     If the repair cannot pull Δ(n) back under the gate the subsystem
//     falls back to a full core.ReorderDegrees rebuild. The vertex
//     imbalance δ(n) is tracked but not gated: swaps and rotations are
//     1-for-1 and admissions go to the fewest-vertex partition with free
//     headroom, so δ(n) keeps the balance the ordering was built with, and
//     a degree sequence that pins δ(n) high (few heavy vertices) pins it
//     for a rebuild too. A background re-sort additionally restores the
//     degree-descending order inside one partition segment after each
//     batch whose repairs disturbed it.
//
//   - A growable vertex space. Grow (and AdmitAndApply, which the facade's
//     external-ID ingest drives through an Allocator) admits zero-degree
//     vertices to the least-vertex partitions, filling reserved headroom
//     slots at each partition segment's tail: internal IDs are append-only, the cached
//     ordering is extended in place (the first admission in a lineage
//     converts it to slotted form with amortized per-segment headroom), and
//     the numbering lineage (RenumEpoch) is preserved with an identity
//     injection on the pre-existing vertices, so engine-side patching
//     across growth epochs is O(delta). Exhausted headroom spills to a
//     relabeling epoch that reserves fresh slots everywhere.
//
//   - View-delta tracking. Between drains (one per published facade view)
//     the subsystem records the net resolved edge changes, the set of
//     vertices repositioned by placement-preserving swaps, rotations and
//     re-sorts (Moved), the number of vertices admitted (Grown), and
//     whether the whole numbering was invalidated (PlacementChanged). The
//     facade derives the exact set of dirty partitions from the delta's
//     destination endpoints plus the moved and admitted positions, builds
//     the segment-local permutation from the two epochs' orderings, and
//     patches engine-side structures for unchanged partitions instead of
//     rebuilding them (see the vebo.View API). The facade keeps the drained
//     deltas as a chain and Folds a window of it only when a reader patches.
//
// See DESIGN.md §5 for how this subsystem fits the rest of the system.
package dynamic

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Config tunes a dynamic graph. The zero value selects the defaults below.
type Config struct {
	// Partitions is the VEBO partition count P (default 64).
	Partitions int
	// RebuildThreshold is the Δ(n) value above which maintenance runs: first
	// the incremental swap repair, which keeps per-partition vertex counts —
	// and therefore the partition segment boundaries of the ordering —
	// fixed, then — if Δ(n) is still above the threshold — a full reorder.
	// Default 2, the paper's power-law bound (Theorem 1 gives Δ ≤ 1; one
	// in-flight batch may add one more). Unless DisableAdaptiveThreshold is
	// set, the effective threshold additionally scales with the graph's
	// degree spread: see EffectiveRebuildThreshold.
	RebuildThreshold int64
	// CompactEvery bounds the delta log: once the number of pending
	// insertions plus pending deletions reaches it, ApplyBatch compacts the
	// log into a fresh base graph. 0 selects an adaptive bound,
	// max(8192, liveEdges/8): compaction costs O(m), so a fixed small bound
	// would pay it every few batches on large graphs.
	CompactEvery int
	// DisableAdaptiveThreshold pins the Δ(n) gate to RebuildThreshold
	// exactly instead of scaling it with the degree spread. Repairs move
	// whole vertices, so the achievable Δ(n) is bounded below by the
	// in-degrees of the vertices available to move: on near-uniform-degree
	// graphs (usaroad) a fixed threshold below that granularity forces a
	// futile full rebuild every batch. Exists for the adaptivity ablation.
	DisableAdaptiveThreshold bool
	// MinHeadroom is the minimum number of reserved admission slots per
	// partition segment in a slotted ordering (default 4). Once the vertex
	// space starts growing, every full ordering sort reserves
	// max(MinHeadroom, HeadroomFrac·occupied) free slots at each segment's
	// tail so admissions land in pre-allocated positions instead of
	// shifting later segments; see Grow.
	MinHeadroom int64
	// HeadroomFrac is the fraction of a segment's occupied length reserved
	// as admission headroom on top of MinHeadroom's floor (default 0.125,
	// vector-doubling-style amortization: the reservation cost is paid once
	// per relabeling epoch and covers proportionally many admissions).
	// Negative disables the proportional term, leaving MinHeadroom alone —
	// the knob spill tests use to force headroom exhaustion quickly.
	HeadroomFrac float64
	// Metrics, when set, receives the subsystem's counters, gauges and
	// latency histograms (the vebo_* series; see DESIGN.md §6). Nil disables
	// metric collection at zero cost: the handles degrade to no-ops.
	Metrics *obs.Registry
	// Spans, when set, receives one causal span per lifecycle step, with
	// the cause and wall-clock duration alongside the modeled work counts:
	// each batch opens an "ingest" span, maintenance work (repair, rebuild,
	// grow, spill, resort, compact) files child spans of the batch that
	// triggered it, and the facade layer parents publish and query spans
	// onto the batch chain (LastBatchSpan). The initial build, a forced
	// Rebuild and an explicit Compact outside a batch file parentless
	// maintenance spans. Nil disables span collection.
	Spans *obs.Spans
}

// DefaultPartitions is the default VEBO partition count for dynamic graphs,
// deliberately smaller than GraphGrind's 384: a live system repartitions
// continuously, and the repair cost scales with P.
const DefaultPartitions = 64

// DefaultMinHeadroom and DefaultHeadroomFrac are the default per-segment
// admission headroom parameters; see Config.MinHeadroom.
const (
	DefaultMinHeadroom  = 4
	DefaultHeadroomFrac = 0.125
)

// validate rejects negative thresholds, compaction bounds and headroom
// floors: zero selects a default, but a negative value would otherwise be
// taken literally (a negative Δ(n) gate forces a repair every batch).
// A negative HeadroomFrac is meaningful and allowed.
func (c Config) validate() error {
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"RebuildThreshold", c.RebuildThreshold},
		{"CompactEvery", int64(c.CompactEvery)},
		{"MinHeadroom", c.MinHeadroom},
	} {
		if f.v < 0 {
			return fmt.Errorf("dynamic: negative %s %d", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Partitions == 0 {
		c.Partitions = DefaultPartitions
	}
	if c.RebuildThreshold == 0 {
		c.RebuildThreshold = 2
	}
	if c.MinHeadroom == 0 {
		c.MinHeadroom = DefaultMinHeadroom
	}
	if c.HeadroomFrac == 0 {
		c.HeadroomFrac = DefaultHeadroomFrac
	}
	return c
}

// headroom returns the number of reserved tail slots for a segment holding
// occ vertices: max(MinHeadroom, HeadroomFrac·occ).
func (c Config) headroom(occ int64) int64 {
	h := int64(float64(occ) * c.HeadroomFrac)
	if h < c.MinHeadroom {
		h = c.MinHeadroom
	}
	return h
}

// compactBound is the current delta-log size triggering compaction.
func (d *Graph) compactBound() int64 {
	if d.cfg.CompactEvery > 0 {
		return int64(d.cfg.CompactEvery)
	}
	b := d.liveEdges / 8
	if b < 8192 {
		b = 8192
	}
	return b
}

// Stats counts the work the subsystem has done, in units comparable with a
// full reorder (one placement = one arg-min probe + assignment, the unit
// Algorithm 2 performs n of).
type Stats struct {
	// Updates is the number of edge updates applied (inserts + deletes).
	Updates int64
	// Inserts and Deletes split Updates.
	Inserts, Deletes int64
	// Placements is the total number of greedy vertex placements performed,
	// including the initial full ordering and any full rebuilds. A swap
	// counts as two placements (both ends are re-placed).
	Placements int64
	// Repairs is the number of incremental swap-repair passes.
	Repairs int64
	// RepairedVertices is the number of placements done by repairs alone.
	RepairedVertices int64
	// Swaps is the number of placement-preserving vertex pair exchanges
	// performed by repair passes.
	Swaps int64
	// Rotations is the number of three-way placement-preserving exchanges
	// performed when no improving pair swap existed.
	Rotations int64
	// RotationAttempts counts rotation searches started (one per repair step
	// that found no improving pair swap); RotationStalls counts the ones where
	// the search found no positive-gain rotation — the step that forces the
	// caller's full-rebuild fallback.
	RotationAttempts int64
	RotationStalls   int64
	// Admitted is the number of vertices added to the graph after
	// construction (Grow and AdmitAndApply admissions).
	Admitted int64
	// HeadroomSpills is the number of times an admission found every
	// partition's reserved headroom exhausted and forced a relabeling epoch
	// (which reserves fresh headroom everywhere); see Grow.
	HeadroomSpills int64
	// Resorts is the number of background segment re-sort passes that moved
	// at least one vertex; ResortedVertices counts the moved vertices.
	Resorts          int64
	ResortedVertices int64
	// FullRebuilds is the number of full Algorithm 2 re-runs (not counting
	// the initial ordering).
	FullRebuilds int64
	// Compactions is the number of delta-log compactions.
	Compactions int64
}

// BatchResult reports what one ApplyBatch call did.
type BatchResult struct {
	Applied int
	// Admitted is the number of vertices auto-admitted by this batch.
	Admitted        int
	Repaired        bool
	Rebuilt         bool
	Compacted       bool
	EdgeImbalance   int64
	VertexImbalance int64
}

type edgeKey uint64

func keyOf(s, d graph.VertexID) edgeKey { return edgeKey(s)<<32 | edgeKey(d) }

// wkey addresses one (src,dst,weight) edge class; weights are stored
// normalized (1 on unweighted graphs and for zero input weights).
type wkey struct {
	k edgeKey
	w int32
}

// delEntry is one resolved deletion in the delta log: it cancelled either a
// base occurrence of class k (fromBase) or the most recent surviving pending
// insertion of class k.
type delEntry struct {
	k        wkey
	fromBase bool
}

// Graph is a mutable graph with an incrementally maintained VEBO ordering.
// Mutation is single-writer: callers serialize ApplyBatch/Compact/Rebuild.
// Concurrent readers use Freeze (or the facade's View API), or keep an old
// immutable Snapshot.
type Graph struct {
	cfg      Config
	n        int
	weighted bool

	// base is the last compacted immutable graph; pendingAdd and pendingDel
	// are the delta log on top of it — append-only between compactions, so
	// a Frozen capture is a pair of prefixes. pendingDel holds one entry per
	// resolved deletion (see delEntry); the maps below index the same log
	// for the writer's deletion resolution.
	base       *graph.Graph
	pendingAdd []graph.Edge
	pendingDel []delEntry
	// addAlive[k] holds the weights of the surviving pending insertions of
	// pair k in insertion order (top = most recent). Its length is the
	// surviving pending multiplicity of the pair.
	addAlive map[edgeKey][]int32
	// delBase[{k,w}] counts pending deletions cancelling base occurrences of
	// (k, weight w), earliest-in-CSR-order first; delPair[k] is the per-pair
	// total of those counts.
	delBase     map[wkey]int64
	delPair     map[edgeKey]int64
	pendingDels int64
	liveEdges   int64

	// Live per-vertex in-degrees and the current placement.
	degIn  []int64
	assign []uint32
	// partEdges[p] and partVerts[p] are the paper's w[p] and u[p],
	// maintained incrementally.
	partEdges []int64
	partVerts []int64

	stats Stats

	// epoch increments on every mutation; snapCache is valid for snapEpoch.
	epoch     int64
	snapCache *graph.Graph
	snapEpoch int64

	// placeEpoch increments whenever any vertex changes partition (repair or
	// rebuild). renumEpoch increments only when the whole numbering is
	// invalidated (full rebuild or headroom spill): swap repairs bump
	// placeEpoch but not renumEpoch, because they permute IDs only inside
	// the affected partitions' segments and the rest of the numbering
	// survives. The cached permutation is stable across epochs that only
	// change degrees and is maintained copy-on-write across swap repairs,
	// which is what makes engine-side patching possible.
	placeEpoch int64
	renumEpoch int64
	ordPerm    []graph.VertexID
	ordPartOf  []uint32
	ordPlace   int64

	// segCap[q] is partition q's slot capacity in the cached slotted
	// ordering — the occupied prefix plus reserved admission headroom — and
	// slotBase (len P+1) its cumulative boundaries: partition q owns new
	// IDs [slotBase[q], slotBase[q+1]), of which [slotBase[q],
	// slotBase[q]+partVerts[q]) are occupied. Both are nil while the
	// ordering is compact. growing flips on the first Grow and stays set:
	// from then on every full ordering sort reserves headroom, so workloads
	// that never grow keep exact compact permutations.
	segCap   []int64
	slotBase []int64
	growing  bool

	// adaptGran caches the repair granularity estimate (a low quantile of
	// the nonzero in-degrees); adaptNext is the Updates count at which it is
	// recomputed.
	adaptGran int64
	adaptNext int64

	// members holds the per-partition member lists the swap repair picks
	// exchange pairs from, maintained incrementally across repair passes
	// (swaps move entries between lists in place); nil when stale — any
	// placement change outside the swap path invalidates it. Avoids an
	// O(n) re-bucketing per pass in the serving regime, where repairs fire
	// almost every batch.
	members [][]graph.VertexID

	// resortNext is the round-robin cursor of the background segment
	// re-sort.
	resortNext int

	// View-delta accumulators, drained by DrainViewDelta.
	viewNet   map[graph.Edge]int64
	viewMoved map[graph.VertexID]struct{}
	viewGrow  int64
	viewPlace bool

	// m holds the metric handles (no-ops when Config.Metrics is nil — the
	// struct is always populated so call sites never nil-check).
	m dynMetrics

	// sp collects causal spans (nil-tolerant); curBatch is the in-flight
	// batch span maintenance steps parent onto, lastBatch the context of the
	// most recently finished one — the causal anchor the facade's publish
	// span links to. Both are writer-side state like everything above.
	sp        *obs.Spans
	curBatch  *obs.ActiveSpan
	lastBatch obs.SpanContext
}

// New wraps g in a dynamic graph, computing the initial VEBO ordering. It
// rejects negative maintenance settings (see Config.validate).
func New(g *graph.Graph, cfg Config) (*Graph, error) {
	start := time.Now()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r, err := core.Reorder(g, cfg.Partitions, core.Options{})
	if err != nil {
		return nil, err
	}
	d := &Graph{
		cfg:       cfg,
		n:         g.NumVertices(),
		weighted:  g.Weighted(),
		base:      g,
		addAlive:  make(map[edgeKey][]int32),
		delBase:   make(map[wkey]int64),
		delPair:   make(map[edgeKey]int64),
		liveEdges: g.NumEdges(),
		degIn:     g.InDegrees(),
		assign:    make([]uint32, g.NumVertices()),
		partEdges: append([]int64(nil), r.EdgeCounts...),
		partVerts: append([]int64(nil), r.VertexCounts...),
		viewNet:   make(map[graph.Edge]int64),
		viewMoved: make(map[graph.VertexID]struct{}),
	}
	copy(d.assign, r.PartitionOf)
	d.stats.Placements = int64(d.n)
	d.snapCache, d.snapEpoch = g, 0
	d.m = newDynMetrics(cfg.Metrics, cfg.Partitions)
	d.sp = cfg.Spans
	d.maintainSpan("graph", "build", start, time.Since(start), map[string]int64{
		"vertices": int64(d.n), "edges": d.liveEdges, "partitions": int64(cfg.Partitions)})
	d.syncGauges()
	return d, nil
}

// NumVertices reports the current vertex count; Grow and AdmitAndApply
// admissions raise it, and internal IDs are append-only (an ID, once
// assigned, always names the same vertex).
func (d *Graph) NumVertices() int { return d.n }

// NumEdges reports the number of live edges (base − pending deletions +
// pending insertions).
func (d *Graph) NumEdges() int64 { return d.liveEdges }

// Weighted reports whether the graph carries non-unit edge weights.
func (d *Graph) Weighted() bool { return d.weighted }

// Partitions reports the partition count P.
func (d *Graph) Partitions() int { return d.cfg.Partitions }

// EdgeImbalance returns the tracked Δ(n) = max_p w[p] − min_p w[p].
func (d *Graph) EdgeImbalance() int64 { return core.Spread(d.partEdges) }

// VertexImbalance returns the tracked δ(n) = max_p u[p] − min_p u[p].
func (d *Graph) VertexImbalance() int64 { return core.Spread(d.partVerts) }

// EdgeCounts returns a copy of the per-partition in-edge counts w[p].
func (d *Graph) EdgeCounts() []int64 { return append([]int64(nil), d.partEdges...) }

// VertexCounts returns a copy of the per-partition vertex counts u[p].
func (d *Graph) VertexCounts() []int64 { return append([]int64(nil), d.partVerts...) }

// PartitionOf returns the current partition of v.
func (d *Graph) PartitionOf(v graph.VertexID) uint32 { return d.assign[v] }

// InDegree returns the live in-degree of v.
func (d *Graph) InDegree(v graph.VertexID) int64 { return d.degIn[v] }

// Stats returns the accumulated work counters.
func (d *Graph) Stats() Stats { return d.stats }

// Epoch returns the mutation epoch, incremented on every applied update.
func (d *Graph) Epoch() int64 { return d.epoch }

// PlaceEpoch returns the placement epoch, incremented whenever any vertex
// changes partition.
func (d *Graph) PlaceEpoch() int64 { return d.placeEpoch }

// RenumEpoch returns the renumbering epoch, incremented only when the whole
// ordering is invalidated (full rebuild or headroom spill). Swap
// repairs preserve it: between equal renumbering epochs, new IDs of all
// vertices outside the drained ViewDelta.Moved set are identical.
func (d *Graph) RenumEpoch() int64 { return d.renumEpoch }

// EffectiveRebuildThreshold returns the Δ(n) gate currently in force:
// RebuildThreshold, raised to twice the repair granularity — the 10th
// percentile of the nonzero live in-degrees — unless adaptivity is
// disabled. Repairs move whole vertices, so they cannot balance below the
// degrees of the vertices available to move; on near-uniform-degree graphs
// the granularity equals the common degree and a fixed low threshold would
// trigger a futile full rebuild every batch.
func (d *Graph) EffectiveRebuildThreshold() int64 { return d.effEdgeThreshold() }

// PendingOps reports the current delta-log size (pending insertions plus
// pending deletions against the base graph).
func (d *Graph) PendingOps() int64 { return int64(len(d.pendingAdd)) + d.pendingDels }

// baseMultiplicity counts edge (s,d) occurrences in the base graph via
// binary search over s's sorted out-neighbour list. Vertices admitted after
// the base was compacted have no base row.
func (d *Graph) baseMultiplicity(s, dst graph.VertexID) int64 {
	if int(s) >= d.base.NumVertices() {
		return 0
	}
	nbrs := d.base.OutNeighbors(s)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	var c int64
	for ; i < len(nbrs) && nbrs[i] == dst; i++ {
		c++
	}
	return c
}

// baseMultiplicityW counts base occurrences of (s,d) with exactly weight w.
func (d *Graph) baseMultiplicityW(s, dst graph.VertexID, w int32) int64 {
	if int(s) >= d.base.NumVertices() {
		return 0
	}
	nbrs := d.base.OutNeighbors(s)
	ws := d.base.OutWeights(s)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	var c int64
	for ; i < len(nbrs) && nbrs[i] == dst; i++ {
		if ws[i] == w {
			c++
		}
	}
	return c
}

// liveMultiplicity counts the surviving occurrences of edge (s,d).
func (d *Graph) liveMultiplicity(s, dst graph.VertexID) int64 {
	k := keyOf(s, dst)
	return d.baseMultiplicity(s, dst) + int64(len(d.addAlive[k])) - d.delPair[k]
}

// HasEdge reports whether at least one live (s,d) edge exists.
func (d *Graph) HasEdge(s, dst graph.VertexID) bool {
	return d.liveMultiplicity(s, dst) > 0
}

// normWeight maps an input weight to its stored form.
func (d *Graph) normWeight(w int32) int32 {
	if !d.weighted || w == 0 {
		return 1
	}
	return w
}

// ApplyBatch applies the updates in order, maintains the per-partition
// counters, and runs the threshold-gated ordering maintenance once at the
// end of the batch. An invalid update (vertex out of range, deletion of a
// non-existent edge) stops processing and returns an error; updates before
// it remain applied. ApplyBatch never admits vertices: see AdmitAndApply.
func (d *Graph) ApplyBatch(updates []graph.EdgeUpdate) (BatchResult, error) {
	return d.AdmitAndApply(0, updates)
}

// AdmitAndApply is ApplyBatch preceded by the admission of admit new
// zero-degree vertices (see Grow) inside the batch: the external-ID ingest
// path interns its arrivals before the batch and admits them here — one
// Grow call claims headroom slots for every arrival — so their grow and
// spill spans parent onto the batch span. The admissions stand even if an
// update aborts the batch.
func (d *Graph) AdmitAndApply(admit int, updates []graph.EdgeUpdate) (BatchResult, error) {
	start := time.Now()
	// The batch span is the causal root of this epoch: maintenance spans
	// (repair, rebuild, grow, spill) file as its children, and the facade's
	// publish span links to it via LastBatchSpan. finishBatch ends it on
	// every return path, error or not.
	d.curBatch = d.sp.Start("batch", "ingest", d.epoch, obs.SpanContext{})
	var res BatchResult
	if admit > 0 {
		d.Grow(admit)
		res.Admitted += admit
	}
	for i, u := range updates {
		if int(u.Src) >= d.n || int(u.Dst) >= d.n {
			return d.finishBatch(res, start), fmt.Errorf("dynamic: update %d: edge (%d,%d) out of range n=%d", i, u.Src, u.Dst, d.n)
		}
		if u.Del {
			if err := d.deleteEdge(u.Src, u.Dst, u.Weight); err != nil {
				return d.finishBatch(res, start), fmt.Errorf("dynamic: update %d: %w", i, err)
			}
		} else {
			d.insertEdge(u.Src, u.Dst, u.Weight)
		}
		res.Applied++
	}
	return d.finishBatch(res, start), nil
}

// overThreshold reports whether Δ(n) exceeds the maintenance gate.
func (d *Graph) overThreshold() bool {
	return d.EdgeImbalance() > d.effEdgeThreshold()
}

// adaptCap bounds the degree histogram used for the granularity quantile;
// a granularity estimate above it is clamped (the threshold is then 2×cap,
// which only an extremely dense uniform-degree graph reaches).
const adaptCap = 1024

// effEdgeThreshold returns the Δ(n) gate currently in force, refreshing the
// cached granularity estimate when enough updates have landed since the
// last computation (the degree distribution drifts slowly, and the O(n)
// quantile should not be paid per batch).
func (d *Graph) effEdgeThreshold() int64 {
	t := d.cfg.RebuildThreshold
	if d.cfg.DisableAdaptiveThreshold {
		return t
	}
	if d.adaptNext == 0 || d.stats.Updates >= d.adaptNext {
		d.refreshGranularity()
	}
	if a := 2 * d.adaptGran; a > t {
		t = a
	}
	return t
}

// refreshGranularity recomputes the repair granularity: the 10th percentile
// of the nonzero live in-degrees. Power-law graphs keep it at 1 (degree-1
// vertices are abundant, so repairs can fine-tune the balance in steps of
// 1); near-uniform-degree graphs (usaroad sits at 4) push it to the common
// degree, the smallest imbalance a whole-vertex move can express.
func (d *Graph) refreshGranularity() {
	hist := make([]int64, adaptCap+1)
	var nonzero int64
	for _, deg := range d.degIn {
		if deg <= 0 {
			continue
		}
		nonzero++
		if deg > adaptCap {
			deg = adaptCap
		}
		hist[deg]++
	}
	d.adaptGran = 0
	if nonzero > 0 {
		tenth := (nonzero + 9) / 10
		var cum int64
		for b := int64(1); b <= adaptCap; b++ {
			cum += hist[b]
			if cum >= tenth {
				d.adaptGran = b
				break
			}
		}
	}
	step := int64(d.n) / 2
	if step < 4096 {
		step = 4096
	}
	d.adaptNext = d.stats.Updates + step
}

// finishBatch runs the end-of-batch maintenance and fills the result,
// filing the lifecycle spans that answer "what did this epoch do, and why":
// a "repair" span (cause "threshold-trip") when a gate fired, a "rebuild"
// span whose cause names which escape hatch forced it, and the "batch"
// span summarizing the epoch, which every maintenance span parents onto.
func (d *Graph) finishBatch(res BatchResult, start time.Time) BatchResult {
	preMoves := d.stats.Swaps + d.stats.Rotations
	if d.overThreshold() {
		preDelta, preVert := d.EdgeImbalance(), d.VertexImbalance()
		rstart := time.Now()
		swaps, rots, stalled := d.swapRepair()
		rdur := time.Since(rstart)
		d.m.repairs.Inc()
		d.m.repairNS.Observe(int64(rdur))
		res.Repaired = true
		d.maintainSpan("repair", "threshold-trip", rstart, rdur, map[string]int64{
			"delta_before": preDelta, "delta_after": d.EdgeImbalance(),
			"vertex_before": preVert, "vertex_after": d.VertexImbalance(),
			"threshold": d.effEdgeThreshold(), "swaps": swaps, "rotations": rots,
			"stalled": b2i(stalled),
		})
		if d.overThreshold() {
			// The repair could not pull Δ(n) back under the gate; name why
			// before falling back to the full reorder.
			cause, ctr := "repair-shortfall", d.m.rebuildShortfall
			if stalled {
				cause, ctr = "rotation-stall", d.m.rebuildRotStall
			}
			d.rebuild(cause, ctr)
			res.Rebuilt = true
		}
	}
	// Swaps and rotations decay the degree-descending order inside
	// segments (a moved vertex parks at its partner's old position);
	// re-sort one segment per disturbing batch. Headroom admissions are
	// not disturbances — they append in sorted position. A rebuild just
	// re-established the order everywhere.
	if !res.Rebuilt && d.stats.Swaps+d.stats.Rotations > preMoves {
		sstart := time.Now()
		q, moved := d.resortSegment()
		d.maintainSpan("resort", "locality-decay", sstart, time.Since(sstart),
			map[string]int64{"partition": int64(q), "moved": int64(moved)})
	}
	if d.PendingOps() >= d.compactBound() {
		d.Compact()
		res.Compacted = true
	}
	res.EdgeImbalance = d.EdgeImbalance()
	res.VertexImbalance = d.VertexImbalance()
	d.m.batches.Inc()
	d.m.batchNS.ObserveSince(start)
	// Close out the epoch's causal root. The post-batch epoch is what views
	// of this batch will be pinned to, so the span settles there.
	d.curBatch.SetEpoch(d.epoch).
		Attr("applied", int64(res.Applied)).Attr("admitted", int64(res.Admitted)).
		Attr("repaired", b2i(res.Repaired)).Attr("rebuilt", b2i(res.Rebuilt)).
		Attr("compacted", b2i(res.Compacted)).
		Attr("edge_imbalance", res.EdgeImbalance).Attr("vertex_imbalance", res.VertexImbalance).
		End()
	d.lastBatch = d.curBatch.Context()
	d.curBatch = nil
	d.syncGauges()
	return res
}

// maintainSpan files a "maintain" span for one maintenance step, child-linked
// to the in-flight batch span — or parentless outside ApplyBatch (the
// initial build, a forced Rebuild, an explicit Compact).
func (d *Graph) maintainSpan(name, cause string, start time.Time, dur time.Duration, attrs map[string]int64) {
	d.sp.Record(obs.Span{
		Parent: d.curBatch.Context().ID, Name: name, Kind: "maintain",
		Cause: cause, Epoch: d.epoch, Start: start, Dur: dur, Attrs: attrs,
	})
}

// LastBatchSpan returns the causal context of the most recently finished
// batch span (the zero context before any batch, or without a Spans
// collector). The facade parents each epoch's publish span onto it.
func (d *Graph) LastBatchSpan() obs.SpanContext { return d.lastBatch }

// Grow admits count new zero-degree vertices, returning the first new
// internal ID (they are assigned densely: first, first+1, …). Each admitted
// vertex goes to the partition holding the fewest vertices among those with
// free headroom — Algorithm 1's least-loaded-bin rule applied incrementally,
// the same rule phase 2 uses for zero-degree vertices — and fills the next
// reserved slot at that partition's segment tail. The first Grow in a
// numbering lineage converts the cached ordering to slotted form (a
// relabeling epoch that reserves max(MinHeadroom, HeadroomFrac·occupied)
// free slots at every segment tail; see Config); after that, admissions
// extend the ordering in place — no copy, no shift of later segments — so
// pre-existing vertices keep their exact new IDs, the old→new injection
// across a growth epoch is the identity, and engine-side patching is
// O(delta). Only when every partition's headroom is exhausted does Grow
// spill to another relabeling epoch (Stats.HeadroomSpills,
// vebo_headroom_spill_total), which reserves fresh headroom everywhere —
// amortized O(1) per admission, vector-doubling style. The admissions are
// counted into the view delta.
func (d *Graph) Grow(count int) graph.VertexID {
	first := graph.VertexID(d.n)
	if count <= 0 {
		return first
	}
	gstart := time.Now()
	d.growing = true
	d.ensureOrdering()
	if d.segCap == nil {
		// First growth in this lineage: the cached ordering predates growing
		// and has no reserved slots. Relabel into slotted form.
		d.spillRelabel()
	}
	spills := int64(0)
	for i := 0; i < count; i++ {
		q := d.admitTarget()
		if q < 0 {
			d.spillRelabel()
			spills++
			q = d.admitTarget()
		}
		// The admission occupies the next free slot of q's segment: appends
		// only, never a rewrite of an occupied position, so readers sharing
		// the published slices (bounded by their own lengths) are unaffected.
		slot := graph.VertexID(d.slotBase[q] + d.partVerts[q])
		d.ordPerm = append(d.ordPerm, slot)
		d.ordPartOf = append(d.ordPartOf, uint32(q))
		d.assign = append(d.assign, uint32(q))
		d.degIn = append(d.degIn, 0)
		if d.members != nil {
			d.members[q] = append(d.members[q], graph.VertexID(d.n))
		}
		d.partVerts[q]++
		d.n++
	}
	d.placeEpoch++
	d.ordPlace = d.placeEpoch
	d.viewGrow += int64(count)
	d.stats.Admitted += int64(count)
	d.stats.Placements += int64(count)
	// No re-sort: a headroom admission appends a zero-degree vertex with the
	// largest ID at its segment's occupied tail, which is exactly where the
	// degree-descending (ID-ascending on ties) order wants it — admissions do
	// not decay the layout the background re-sort repairs.
	d.touch()
	cause := "growth-headroom"
	if spills > 0 {
		cause = "growth-spill"
	}
	free, _ := d.Headroom()
	d.m.admitted.Add(int64(count))
	d.m.growNS.ObserveSince(gstart)
	d.maintainSpan("grow", cause, gstart, time.Since(gstart), map[string]int64{
		"admitted": int64(count), "vertices": int64(d.n),
		"spills": spills, "headroom_free": free})
	d.syncGauges()
	return first
}

// admitTarget returns the partition the next admission should fill: the
// fewest-vertices partition among those with free headroom, ties broken by
// edge load. Returns -1 when every partition's headroom is exhausted (or the
// ordering is not slotted yet).
func (d *Graph) admitTarget() int {
	if d.segCap == nil {
		return -1
	}
	best := -1
	for q := range d.partVerts {
		if d.partVerts[q] >= d.segCap[q] {
			continue
		}
		if best < 0 || d.partVerts[q] < d.partVerts[best] ||
			(d.partVerts[q] == d.partVerts[best] && d.partEdges[q] < d.partEdges[best]) {
			best = q
		}
	}
	return best
}

// spillRelabel converts the ordering to freshly slotted form through a
// relabeling epoch: the numbering lineage breaks (placementChanged), and the
// rebuilt ordering reserves headroom at every segment tail, guaranteeing
// admitTarget succeeds. Called on the first growth of a lineage and on
// headroom exhaustion; only the latter counts as a spill.
func (d *Graph) spillRelabel() {
	spill := d.segCap != nil
	if spill {
		d.stats.HeadroomSpills++
		d.m.headroomSpills.Inc()
	}
	sstart := time.Now()
	d.placementChanged()
	d.ensureOrdering()
	d.maintainSpan("spill", map[bool]string{true: "headroom-exhausted", false: "first-growth"}[spill],
		sstart, time.Since(sstart), nil)
}

// Headroom reports the admission headroom of the cached slotted ordering:
// free reserved slots and total slot capacity, summed over partitions. Both
// are zero while the ordering is compact (no Grow yet) or stale (a
// renumbering is pending and the next ensureOrdering re-reserves).
func (d *Graph) Headroom() (free, capacity int64) {
	if d.segCap == nil || d.ordPlace != d.placeEpoch {
		return 0, 0
	}
	for q, c := range d.segCap {
		capacity += c
		free += c - d.partVerts[q]
	}
	return free, capacity
}

// SlotCounts returns a copy of the per-partition slot capacities of the
// cached slotted ordering (occupied plus reserved headroom), or nil while
// the ordering is compact.
func (d *Graph) SlotCounts() []int64 {
	if d.segCap == nil {
		return nil
	}
	return append([]int64(nil), d.segCap...)
}

// b2i renders a bool as a span attribute count.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// resortSegment restores the degree-descending (ID-ascending on ties) order
// phase 3 establishes inside one partition's segment, advancing a
// round-robin cursor one partition per call. Preserve-mode swaps park a
// moved vertex at its partner's old position and admissions append at the
// tail, so segments slowly lose the layout that gives dense traversal its
// locality; the re-sort is a segment-local permutation — exactly the shape
// the engine patch paths already handle — recorded in the view delta's
// moved set like any swap. Returns the partition visited and the number
// of vertices the pass moved.
func (d *Graph) resortSegment() (q, moved int) {
	d.ensureOrdering()
	d.ensureMembers()
	q = d.resortNext % d.cfg.Partitions
	d.resortNext++
	l := d.members[q]
	if len(l) < 2 {
		return q, 0
	}
	byPos := append([]graph.VertexID(nil), l...)
	sort.Slice(byPos, func(i, j int) bool { return d.ordPerm[byPos[i]] < d.ordPerm[byPos[j]] })
	want := append([]graph.VertexID(nil), l...)
	sort.Slice(want, func(i, j int) bool {
		if d.degIn[want[i]] != d.degIn[want[j]] {
			return d.degIn[want[i]] > d.degIn[want[j]]
		}
		return want[i] < want[j]
	})
	var movers []graph.VertexID
	for i := range want {
		if want[i] != byPos[i] {
			movers = append(movers, want[i])
		}
	}
	if len(movers) == 0 {
		return q, 0
	}
	pos := make([]graph.VertexID, len(byPos))
	for i, v := range byPos {
		pos[i] = d.ordPerm[v]
	}
	perm := append([]graph.VertexID(nil), d.ordPerm...) // copy-on-write
	for i, v := range want {
		perm[v] = pos[i]
	}
	d.ordPerm = perm
	d.placeEpoch++
	d.ordPlace = d.placeEpoch
	for _, v := range movers {
		d.viewMoved[v] = struct{}{}
	}
	d.stats.Resorts++
	d.stats.ResortedVertices += int64(len(movers))
	d.m.resorts.Inc()
	return q, len(movers)
}

func (d *Graph) insertEdge(s, dst graph.VertexID, w int32) {
	w = d.normWeight(w)
	k := keyOf(s, dst)
	d.pendingAdd = append(d.pendingAdd, graph.Edge{Src: s, Dst: dst, Weight: w})
	d.addAlive[k] = append(d.addAlive[k], w)
	d.liveEdges++
	d.degIn[dst]++
	d.partEdges[d.assign[dst]]++
	d.noteChange(graph.Edge{Src: s, Dst: dst, Weight: w}, +1)
	d.touch()
	d.stats.Updates++
	d.stats.Inserts++
	d.m.inserts.Inc()
}

// deleteEdge cancels one live (s,dst) occurrence. A non-zero wSel on a
// weighted graph selects among parallel edges: only an occurrence carrying
// exactly that weight may die. With no selector (wSel == 0, or any value on
// unweighted graphs) the most recent pending log insertion dies first, else
// the earliest surviving base occurrence — deterministic either way, and the
// resolved weight is recorded so snapshots and view deltas agree
// edge-for-edge.
func (d *Graph) deleteEdge(s, dst graph.VertexID, wSel int32) error {
	k := keyOf(s, dst)
	if !d.weighted {
		wSel = 0
	}
	var died int32
	fromBase := false
	if wSel == 0 {
		if alive := d.addAlive[k]; len(alive) > 0 {
			died = alive[len(alive)-1]
			d.popAlive(k, len(alive)-1)
		} else {
			w, ok := d.earliestLiveBase(s, dst)
			if !ok {
				return fmt.Errorf("delete of non-existent edge (%d,%d)", s, dst)
			}
			died, fromBase = w, true
			d.cancelBase(k, w)
		}
	} else {
		alive := d.addAlive[k]
		i := len(alive) - 1
		for ; i >= 0; i-- {
			if alive[i] == wSel {
				break
			}
		}
		switch {
		case i >= 0:
			died = wSel
			d.popAlive(k, i)
		case d.baseMultiplicityW(s, dst, wSel)-d.delBase[wkey{k, wSel}] > 0:
			died, fromBase = wSel, true
			d.cancelBase(k, wSel)
		default:
			return fmt.Errorf("delete of non-existent edge (%d,%d) with weight %d", s, dst, wSel)
		}
	}
	d.pendingDel = append(d.pendingDel, delEntry{wkey{k, died}, fromBase})
	d.liveEdges--
	d.degIn[dst]--
	d.partEdges[d.assign[dst]]--
	d.noteChange(graph.Edge{Src: s, Dst: dst, Weight: died}, -1)
	d.touch()
	d.stats.Updates++
	d.stats.Deletes++
	d.m.deletes.Inc()
	return nil
}

// popAlive removes index i from pair k's surviving-pending weight list.
func (d *Graph) popAlive(k edgeKey, i int) {
	alive := d.addAlive[k]
	alive = append(alive[:i], alive[i+1:]...)
	if len(alive) == 0 {
		delete(d.addAlive, k)
	} else {
		d.addAlive[k] = alive
	}
	// The insertion's log entry stays; the deletion log entry recorded by
	// deleteEdge cancels it at snapshot/compaction.
}

// cancelBase records a deletion against a base occurrence of (k, w).
func (d *Graph) cancelBase(k edgeKey, w int32) {
	d.delBase[wkey{k, w}]++
	d.delPair[k]++
	d.pendingDels++
}

// earliestLiveBase locates the earliest base occurrence of (s,dst) not yet
// cancelled and returns its weight. Cancellations are per-weight prefixes of
// the parallel-edge run, so an occurrence is live iff the number of
// same-weight occurrences before it covers the weight's cancellation count.
func (d *Graph) earliestLiveBase(s, dst graph.VertexID) (int32, bool) {
	if int(s) >= d.base.NumVertices() {
		return 0, false
	}
	nbrs := d.base.OutNeighbors(s)
	ws := d.base.OutWeights(s)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	k := keyOf(s, dst)
	var seen map[int32]int64
	for ; i < len(nbrs) && nbrs[i] == dst; i++ {
		w := ws[i]
		cancelled := d.delBase[wkey{k, w}]
		if cancelled == 0 {
			return w, true
		}
		if seen == nil {
			seen = make(map[int32]int64, 4)
		}
		if seen[w] >= cancelled {
			return w, true
		}
		seen[w]++
	}
	return 0, false
}

// noteChange accumulates the view delta for one resolved edge change.
func (d *Graph) noteChange(e graph.Edge, sign int64) {
	d.viewNet[e] += sign
	if d.viewNet[e] == 0 {
		delete(d.viewNet, e)
	}
}

func (d *Graph) touch() {
	d.epoch++
}

// ensureMembers (re)builds the per-partition member lists when stale.
func (d *Graph) ensureMembers() {
	if d.members != nil {
		return
	}
	d.members = make([][]graph.VertexID, d.cfg.Partitions)
	for v := 0; v < d.n; v++ {
		q := d.assign[v]
		d.members[q] = append(d.members[q], graph.VertexID(v))
	}
}

// swapRepair pulls Δ(n) back under the effective threshold without moving
// the partition segment boundaries: each step exchanges a vertex v of the
// most-loaded partition with a lower-degree vertex u of the least-loaded
// one, transferring deg(v)−deg(u) edges while both vertex counts stay
// fixed. The pair is chosen to maximize the edge-balance gain (transfer
// closest to half the gap), breaking ties toward the lowest-degree u. The
// two vertices exchange new IDs, so the ordering permutation changes at
// exactly the swapped positions — a segment-local permutation the view
// layer can patch engines across (ViewDelta.Moved). The shared cached
// permutation is never mutated: a repair pass that swaps clones it once
// (copy-on-write) so views pinned to earlier epochs keep their numbering.
//
// The return reports the pass outcome: the exchange counts, and stalled —
// the pass ended with the gap still over threshold and neither an improving
// pair swap nor a positive-gain rotation left, the state that forces the
// caller's full-rebuild fallback.
func (d *Graph) swapRepair() (swaps, rots int64, stalled bool) {
	th := d.effEdgeThreshold()
	if core.Spread(d.partEdges) <= th {
		return 0, 0, false
	}
	d.ensureOrdering()
	d.ensureMembers()
	p := d.cfg.Partitions
	lists := d.members
	// Partition member lists are sorted by ascending live degree lazily, on
	// first use as a donor or receiver in this pass (degrees drift between
	// passes, so sortedness never carries over); a typical pass touches a
	// handful of partitions, not all P.
	sorted := make([]bool, p)
	byDeg := func(l []graph.VertexID) func(i, j int) bool {
		return func(i, j int) bool {
			if d.degIn[l[i]] != d.degIn[l[j]] {
				return d.degIn[l[i]] < d.degIn[l[j]]
			}
			return l[i] < l[j]
		}
	}
	sortList := func(q int) {
		if !sorted[q] {
			sort.Slice(lists[q], byDeg(lists[q]))
			sorted[q] = true
		}
	}
	// insertSorted keeps a sorted list sorted after adding w.
	insertSorted := func(q int, w graph.VertexID) {
		l := lists[q]
		i := sort.Search(len(l), func(i int) bool {
			if d.degIn[l[i]] != d.degIn[w] {
				return d.degIn[l[i]] > d.degIn[w]
			}
			return l[i] >= w
		})
		l = append(l, 0)
		copy(l[i+1:], l[i:])
		l[i] = w
		lists[q] = l
	}
	var perm []graph.VertexID
	var partOf []uint32
	var moved []graph.VertexID
	// cow clones the shared cached permutation once per pass, so views
	// pinned to earlier epochs keep their numbering.
	cow := func() {
		if perm == nil {
			perm = append([]graph.VertexID(nil), d.ordPerm...)
			partOf = append([]uint32(nil), d.ordPartOf...)
		}
	}
	// rotate attempts a three-way exchange when no improving pair swap
	// exists: a ∈ pmax moves to an intermediate partition q, b ∈ q moves to
	// pmin, and c ∈ pmin moves to pmax, the three exchanging new IDs
	// cyclically so all vertex counts and segment boundaries stay fixed.
	// Per-pair transfers that are individually too coarse (deg(a)−deg(c)
	// ∉ (0, gap) for every direct pair) can compose into a fine-grained
	// net flow through q. The rotation is accepted only if it strictly
	// decreases the sum of squared loads of the three partitions, which
	// bounds the repair loop the same way pair swaps do.
	rotate := func(pmax, pmin int, gap int64) bool {
		d.stats.RotationAttempts++
		d.m.rotAttempts.Inc()
		lmax, lmin := lists[pmax], lists[pmin]
		bestQ, bestA, bestB, bestC := -1, -1, -1, -1
		var bestGain int64
		// Gain of moving loads x→x+t is −(2xt+t²) summed over the three
		// partitions; positive gain = smaller Σ load².
		gainOf := func(load, t int64) int64 { return -(2*load*t + t*t) }
		consider := func(q, aj, bj, ci int) {
			a, b, c := lmax[aj], lists[q][bj], lmin[ci]
			da, db, dc := d.degIn[a], d.degIn[b], d.degIn[c]
			gain := gainOf(d.partEdges[pmax], dc-da) +
				gainOf(d.partEdges[q], da-db) +
				gainOf(d.partEdges[pmin], db-dc)
			if gain > bestGain {
				bestQ, bestA, bestB, bestC, bestGain = q, aj, bj, ci, gain
			}
		}
		// Exhaustive pmin×P sweep: for each intermediate q and receiver c,
		// take the donors a bracketing the ideal transfer (as the pair search
		// does) and the intermediates b bracketing deg(a), so q's load barely
		// moves.
		for q := 0; q < p; q++ {
			if q == pmax || q == pmin || len(lists[q]) == 0 {
				continue
			}
			sortList(q)
			lq := lists[q]
			for ci, c := range lmin {
				target := d.degIn[c] + (gap+1)/2
				ai := sort.Search(len(lmax), func(i int) bool { return d.degIn[lmax[i]] >= target })
				for _, aj := range [2]int{ai - 1, ai} {
					if aj < 0 || aj >= len(lmax) {
						continue
					}
					da := d.degIn[lmax[aj]]
					bi := sort.Search(len(lq), func(i int) bool { return d.degIn[lq[i]] >= da })
					for _, bj := range [2]int{bi - 1, bi} {
						if bj < 0 || bj >= len(lq) {
							continue
						}
						consider(q, aj, bj, ci)
					}
				}
			}
		}
		if bestQ < 0 {
			d.stats.RotationStalls++
			d.m.rotStalls.Inc()
			return false
		}
		q := bestQ
		a, b, c := lists[pmax][bestA], lists[q][bestB], lists[pmin][bestC]
		cow()
		da, db, dc := d.degIn[a], d.degIn[b], d.degIn[c]
		d.assign[a], d.assign[b], d.assign[c] = uint32(q), uint32(pmin), uint32(pmax)
		partOf[a], partOf[b], partOf[c] = uint32(q), uint32(pmin), uint32(pmax)
		d.partEdges[pmax] += dc - da
		d.partEdges[q] += da - db
		d.partEdges[pmin] += db - dc
		// a takes b's position, b takes c's, c takes a's.
		perm[a], perm[b], perm[c] = perm[b], perm[c], perm[a]
		moved = append(moved, a, b, c)
		rots++
		lists[pmax] = append(lists[pmax][:bestA], lists[pmax][bestA+1:]...)
		lists[q] = append(lists[q][:bestB], lists[q][bestB+1:]...)
		lists[pmin] = append(lists[pmin][:bestC], lists[pmin][bestC+1:]...)
		insertSorted(q, a)
		insertSorted(pmin, b)
		insertSorted(pmax, c)
		return true
	}
	for iter := 0; iter < d.n; iter++ {
		pmax := argMin2Neg(d.partEdges)
		pmin := argMin2(d.partEdges, d.partVerts)
		gap := d.partEdges[pmax] - d.partEdges[pmin]
		if gap <= th {
			break
		}
		sortList(pmax)
		sortList(pmin)
		lmax, lmin := lists[pmax], lists[pmin]
		// Best pair: minimize |transfer − gap/2| over transfers in (0, gap),
		// which strictly shrinks this pair's imbalance (and the sum of
		// squared loads, so the loop terminates). For each candidate u the
		// two donors bracketing the ideal degree suffice, since degrees are
		// sorted.
		bestV, bestU := -1, -1
		var bestScore int64
		for ui, u := range lmin {
			target := d.degIn[u] + (gap+1)/2
			i := sort.Search(len(lmax), func(i int) bool { return d.degIn[lmax[i]] >= target })
			for _, j := range [2]int{i - 1, i} {
				if j < 0 || j >= len(lmax) {
					continue
				}
				t := d.degIn[lmax[j]] - d.degIn[u]
				if t <= 0 || t >= gap {
					continue
				}
				score := gap - 2*t
				if score < 0 {
					score = -score
				}
				if bestV < 0 || score < bestScore {
					bestV, bestU, bestScore = j, ui, score
				}
			}
		}
		if bestV < 0 {
			// No improving pair exchange exists; try a three-way rotation
			// through an intermediate partition before giving up (the
			// caller falls back to a full rebuild).
			if !rotate(pmax, pmin, gap) {
				stalled = true
				break
			}
			continue
		}
		v, u := lmax[bestV], lmin[bestU]
		cow()
		dv, du := d.degIn[v], d.degIn[u]
		d.assign[v], d.assign[u] = uint32(pmin), uint32(pmax)
		partOf[v], partOf[u] = uint32(pmin), uint32(pmax)
		d.partEdges[pmax] += du - dv
		d.partEdges[pmin] += dv - du
		perm[v], perm[u] = perm[u], perm[v]
		moved = append(moved, v, u)
		swaps++
		lists[pmax] = append(lmax[:bestV], lmax[bestV+1:]...)
		lists[pmin] = append(lmin[:bestU], lmin[bestU+1:]...)
		insertSorted(pmax, u)
		insertSorted(pmin, v)
	}
	if swaps > 0 || rots > 0 {
		d.ordPerm, d.ordPartOf = perm, partOf
		d.placeEpoch++
		d.ordPlace = d.placeEpoch
		for _, w := range moved {
			d.viewMoved[w] = struct{}{}
		}
		d.stats.Swaps += swaps
		d.stats.Rotations += rots
		d.stats.Placements += 2*swaps + 3*rots
		d.stats.RepairedVertices += 2*swaps + 3*rots
		d.m.swaps.Add(swaps)
		d.m.rotations.Add(rots)
	}
	d.stats.Repairs++
	return swaps, rots, stalled
}

// argMin2Neg returns the index of the maximum value (lowest index wins ties).
func argMin2Neg(xs []int64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// rebuild runs the full Algorithm 2 over the live degree array, counting it
// on ctr (the vebo_rebuilds_total series of its cause) and filing a
// "rebuild" span that names the cause.
func (d *Graph) rebuild(cause string, ctr *obs.Counter) {
	start := time.Now()
	r, err := core.ReorderDegrees(d.degIn, d.cfg.Partitions, core.Options{})
	if err != nil {
		// Unreachable: the config validated P at New time.
		panic(err)
	}
	copy(d.assign, r.PartitionOf)
	copy(d.partEdges, r.EdgeCounts)
	copy(d.partVerts, r.VertexCounts)
	d.stats.FullRebuilds++
	d.stats.Placements += int64(d.n)
	d.placementChanged()
	dur := time.Since(start)
	ctr.Inc()
	d.m.rebuildNS.Observe(int64(dur))
	d.maintainSpan("rebuild", cause, start, dur, map[string]int64{
		"placements":   int64(d.n),
		"delta_after":  d.EdgeImbalance(),
		"vertex_after": d.VertexImbalance(),
	})
}

// placementChanged invalidates everything keyed to the placement: the cached
// permutation and the patchability of engine-side structures. Swap repairs
// do NOT go through here — they maintain the permutation copy-on-write and
// record their moves in viewMoved instead, keeping the numbering lineage
// (renumEpoch) intact.
func (d *Graph) placementChanged() {
	d.placeEpoch++
	d.renumEpoch++
	d.viewPlace = true
	// Per-vertex move tracking is moot once the whole numbering changed,
	// and the swap repair's member lists no longer match the assignment.
	d.viewMoved = make(map[graph.VertexID]struct{})
	d.members = nil
}

// Rebuild forces a full reorder regardless of the thresholds.
func (d *Graph) Rebuild() {
	d.rebuild("forced", d.m.rebuildForced)
	d.syncGauges()
}

// argMin2 returns the index minimizing primary, breaking ties by secondary.
func argMin2(primary, secondary []int64) int {
	best := 0
	for i := 1; i < len(primary); i++ {
		if primary[i] < primary[best] ||
			(primary[i] == primary[best] && secondary[i] < secondary[best]) {
			best = i
		}
	}
	return best
}

// Frozen is an immutable capture of the live edge multiset at one epoch. It
// shares the base graph and the append-only prefixes of the insertion and
// deletion logs with the live structure, so freezing is O(1) — two slice
// headers, the base pointer and a few counts — regardless of graph size or
// log length. A Frozen may be materialized from any goroutine, concurrently
// with further ApplyBatch calls on the source graph.
//
//vebo:frozen
type Frozen struct {
	n         int
	weighted  bool
	epoch     int64
	liveEdges int64
	base      *graph.Graph
	pending   []graph.Edge // insertion log prefix
	dels      []delEntry   // deletion log prefix
}

// Freeze captures the current live edge multiset.
func (d *Graph) Freeze() Frozen {
	return Frozen{
		n:         d.n,
		weighted:  d.weighted,
		epoch:     d.epoch,
		liveEdges: d.liveEdges,
		base:      d.base,
		pending:   d.pendingAdd[:len(d.pendingAdd):len(d.pendingAdd)],
		dels:      d.pendingDel[:len(d.pendingDel):len(d.pendingDel)],
	}
}

// Epoch returns the mutation epoch the capture was taken at.
func (f Frozen) Epoch() int64 { return f.epoch }

// NumVertices reports the vertex count.
func (f Frozen) NumVertices() int { return f.n }

// NumEdges reports the live edge count of the capture.
func (f Frozen) NumEdges() int64 { return f.liveEdges }

// Materialize builds the captured edge multiset as an immutable CSR+CSC
// graph, in deterministic order: base edges in CSR order with cancellations
// consuming the earliest same-weight occurrences, then surviving log
// insertions in arrival order.
func (f Frozen) Materialize() *graph.Graph {
	edges := make([]graph.Edge, 0, f.liveEdges)
	// Replay the deletion log into per-class cancellation counts, of base
	// occurrences and of log insertions.
	var baseDel, logDel map[wkey]int64
	if len(f.dels) > 0 {
		baseDel, logDel = make(map[wkey]int64), make(map[wkey]int64)
	}
	for _, c := range f.dels {
		if c.fromBase {
			baseDel[c.k]++
		} else {
			logDel[c.k]++
		}
	}
	for _, e := range f.base.Edges() {
		k := wkey{keyOf(e.Src, e.Dst), e.Weight}
		if baseDel[k] > 0 {
			baseDel[k]--
			continue
		}
		edges = append(edges, e)
	}
	// Same-class log insertions are identical edges, so only the per-class
	// count of cancellations matters: walking the log backwards, each
	// class's latest insertions absorb them, and the survivors keep their
	// arrival order.
	var dead []bool
	if len(logDel) > 0 {
		dead = make([]bool, len(f.pending))
		for i := len(f.pending) - 1; i >= 0; i-- {
			e := f.pending[i]
			k := wkey{keyOf(e.Src, e.Dst), e.Weight}
			if logDel[k] > 0 {
				logDel[k]--
				dead[i] = true
			}
		}
	}
	for i, e := range f.pending {
		if dead == nil || !dead[i] {
			edges = append(edges, e)
		}
	}
	g, err := graph.FromEdges(f.n, edges, f.weighted)
	if err != nil {
		// Unreachable: every applied update was range-checked.
		panic(err)
	}
	return g
}

// Snapshot materializes the live graph as an immutable CSR+CSC graph.Graph
// the processing engines can traverse. The result is cached until the next
// mutation; callers must not retain it across ApplyBatch if they need the
// newest state, but may keep using an old snapshot safely (it is never
// mutated).
func (d *Graph) Snapshot() *graph.Graph {
	if d.snapCache != nil && d.snapEpoch == d.epoch {
		return d.snapCache
	}
	g := d.Freeze().Materialize()
	d.snapCache, d.snapEpoch = g, d.epoch
	return g
}

// Compact promotes the current snapshot to the new base graph and clears the
// delta log. Engines holding older snapshots (and views holding older
// freezes) are unaffected: the old base and log prefix stay immutable. The
// "compact" span it files parents onto the in-flight batch when the delta
// log bound triggered it from ApplyBatch.
func (d *Graph) Compact() {
	cstart := time.Now()
	pending := d.PendingOps()
	d.base = d.Snapshot()
	d.pendingAdd, d.pendingDel = nil, nil
	d.addAlive = make(map[edgeKey][]int32)
	d.delBase = make(map[wkey]int64)
	d.delPair = make(map[edgeKey]int64)
	d.pendingDels = 0
	d.stats.Compactions++
	d.m.compactions.Inc()
	d.m.compactNS.ObserveSince(cstart)
	d.maintainSpan("compact", "log-bound", cstart, time.Since(cstart),
		map[string]int64{"pending_ops": pending, "base_edges": d.liveEdges})
}

// ensureOrdering makes the cached permutation current. The full
// (partition, degree desc, ID) sort runs only when the numbering lineage
// broke (initial call, full rebuild, headroom spill);
// swap repairs update the cached permutation copy-on-write themselves, and
// Grow extends it in place, so between renumbering events the new IDs of
// unmoved vertices never change. Once the vertex space has started growing,
// the sort produces a slotted ordering: each partition's segment is followed
// by reserved headroom slots (Config.headroom) that future admissions fill
// without renumbering anything; before the first Grow the ordering stays
// compact, so non-growing workloads see exact permutations.
func (d *Graph) ensureOrdering() {
	if d.ordPerm != nil && d.ordPlace == d.placeEpoch {
		return
	}
	order := make([]int, d.n)
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if d.assign[a] != d.assign[b] {
			return d.assign[a] < d.assign[b]
		}
		if d.degIn[a] != d.degIn[b] {
			return d.degIn[a] > d.degIn[b]
		}
		return a < b
	})
	perm := make([]graph.VertexID, d.n)
	if d.growing {
		p := d.cfg.Partitions
		d.segCap = make([]int64, p)
		d.slotBase = make([]int64, p+1)
		for q := 0; q < p; q++ {
			d.segCap[q] = d.partVerts[q] + d.cfg.headroom(d.partVerts[q])
			d.slotBase[q+1] = d.slotBase[q] + d.segCap[q]
		}
		next := append([]int64(nil), d.slotBase[:p]...)
		// order is sorted by partition first, so assigning sequentially from
		// each partition's slot base keeps the occupied positions a
		// contiguous prefix of every segment.
		for _, v := range order {
			q := d.assign[v]
			perm[v] = graph.VertexID(next[q])
			next[q]++
		}
	} else {
		d.segCap, d.slotBase = nil, nil
		for newID, v := range order {
			perm[v] = graph.VertexID(newID)
		}
	}
	d.ordPerm = perm
	d.ordPartOf = append([]uint32(nil), d.assign...)
	d.ordPlace = d.placeEpoch
}

// Ordering returns the current placement as a core.Result: the permutation
// renumbers vertices so each partition owns a contiguous new-ID range, with
// vertices in decreasing degree order (as of the last renumbering event)
// inside it, as Algorithm 2's phase 3 does. The permutation is recomputed
// only when the numbering lineage breaks (full rebuild or headroom spill);
// swap repairs permute it copy-on-write at exactly the swapped
// positions, and degree-only epochs keep the exact numbering — which is
// what lets engine-side structures of unchanged partitions be reused —
// while the returned per-partition counts are always current. Once the
// vertex space has grown, the result is slotted (SlotCounts non-nil): each
// segment carries reserved headroom slots after its occupied prefix, the
// permutation is an injection into the slot space, and admissions fill
// slots without renumbering anyone. The Perm and PartitionOf slices are
// shared and immutable; callers must not modify them.
func (d *Graph) Ordering() *core.Result {
	d.ensureOrdering()
	return &core.Result{
		P:            d.cfg.Partitions,
		Perm:         d.ordPerm,
		PartitionOf:  d.ordPartOf,
		VertexCounts: d.VertexCounts(),
		EdgeCounts:   d.EdgeCounts(),
		SlotCounts:   d.SlotCounts(),
	}
}

// ViewDelta describes everything that changed between two drains: the net
// resolved edge changes and whether the placement moved. The facade
// publishes one view per drain and uses the delta to patch engine-side
// structures instead of rebuilding them; the exact set of dirty partitions
// is derived from the delta's destination endpoints.
type ViewDelta struct {
	// Net maps an edge triple (Src, Dst, normalized Weight) to its net
	// multiplicity change since the last drain. Entries are never zero.
	Net map[graph.Edge]int64
	// Moved holds the original-ID vertices repositioned by
	// placement-preserving swap repairs since the last drain: their
	// partition and new ID changed, but the partition segment boundaries
	// did not, and every vertex outside the set kept its exact new ID. A
	// Fold over several windows unions the sets, which may over-approximate
	// (an entry whose endpoint positions turn out equal is harmless — its
	// segment permutation entry is the identity).
	Moved map[graph.VertexID]struct{}
	// PlacementChanged reports whether the whole numbering was invalidated
	// since the last drain (full rebuild or headroom spill); swap repairs
	// set Moved instead.
	PlacementChanged bool
	// Grown counts the vertices admitted since the last drain. Admissions
	// fill reserved headroom slots inside fixed segment boundaries, leaving
	// every pre-existing vertex's new ID unchanged. Internal IDs are
	// append-only, so the admitted vertices are exactly the IDs in
	// [n − Grown, n) of the drained epoch's space; their new IDs are
	// scattered per-partition tail slots, not a contiguous range. A spill
	// (headroom exhaustion) renumbers instead and sets PlacementChanged.
	Grown int64
}

// Empty reports whether the delta records no change at all.
func (vd ViewDelta) Empty() bool {
	return len(vd.Net) == 0 && len(vd.Moved) == 0 && vd.Grown == 0 && !vd.PlacementChanged
}

// DrainViewDelta returns the accumulated delta and resets the accumulators.
// Single-writer: call only from the goroutine that applies batches.
// An empty window drains as the zero ViewDelta and keeps the accumulators.
func (d *Graph) DrainViewDelta() ViewDelta {
	vd := ViewDelta{
		Net:              d.viewNet,
		Moved:            d.viewMoved,
		PlacementChanged: d.viewPlace,
		Grown:            d.viewGrow,
	}
	if vd.Empty() {
		return ViewDelta{}
	}
	d.viewNet = make(map[graph.Edge]int64)
	d.viewMoved = make(map[graph.VertexID]struct{})
	d.viewGrow = 0
	d.viewPlace = false
	return vd
}

// Fold sums a chain of consecutive drained deltas into the one delta
// covering their combined window: Net multiplicities and Grown counts add
// (entries that cancel across windows drop out, so Net is exact), Moved is
// the union of the windows' sets (a superset of the vertices whose position
// differs across the whole window — the caller trims it against the two
// orderings), and PlacementChanged is set when any window renumbered. The
// result owns fresh maps; no input is mutated. Cost is O(total entries).
func Fold(chain []ViewDelta) ViewDelta {
	var out ViewDelta
	for _, vd := range chain {
		if len(vd.Net) > 0 && out.Net == nil {
			out.Net = make(map[graph.Edge]int64, len(vd.Net))
		}
		for e, c := range vd.Net {
			out.Net[e] += c
			if out.Net[e] == 0 {
				delete(out.Net, e)
			}
		}
		if len(vd.Moved) > 0 && out.Moved == nil {
			out.Moved = make(map[graph.VertexID]struct{}, len(vd.Moved))
		}
		for w := range vd.Moved {
			out.Moved[w] = struct{}{}
		}
		out.Grown += vd.Grown
		out.PlacementChanged = out.PlacementChanged || vd.PlacementChanged
	}
	return out
}

// dynMetrics bundles the subsystem's metric handles. It is populated even
// with a nil registry (every handle is then a nil no-op), so instrumented
// paths never branch on whether metrics are enabled.
type dynMetrics struct {
	batches, inserts, deletes       *obs.Counter
	repairs, swaps, rotations       *obs.Counter
	rotAttempts, rotStalls          *obs.Counter
	rebuildRotStall                 *obs.Counter
	rebuildShortfall, rebuildForced *obs.Counter
	resorts, compactions            *obs.Counter
	admitted, headroomSpills        *obs.Counter

	batchNS, repairNS, rebuildNS *obs.Histogram
	growNS, compactNS            *obs.Histogram

	epoch, vertices, liveEdges  *obs.Gauge
	edgeImb, vertImb, effThresh *obs.Gauge
	pendingOps                  *obs.Gauge
	// headroomSlots[q] tracks partition q's free reserved admission slots
	// (vebo_headroom_slots{partition=q}); zero while the ordering is compact.
	headroomSlots []*obs.Gauge
}

func newDynMetrics(r *obs.Registry, p int) dynMetrics {
	slots := make([]*obs.Gauge, p)
	for q := range slots {
		slots[q] = r.Gauge("vebo_headroom_slots", "partition", strconv.Itoa(q))
	}
	return dynMetrics{
		batches:          r.Counter("vebo_batches_total"),
		inserts:          r.Counter("vebo_updates_total", "op", "insert"),
		deletes:          r.Counter("vebo_updates_total", "op", "delete"),
		repairs:          r.Counter("vebo_repairs_total"),
		swaps:            r.Counter("vebo_swaps_total"),
		rotations:        r.Counter("vebo_rotations_total"),
		rotAttempts:      r.Counter("vebo_rotation_search_total", "result", "attempt"),
		rotStalls:        r.Counter("vebo_rotation_search_total", "result", "stall"),
		rebuildRotStall:  r.Counter("vebo_rebuilds_total", "cause", "rotation-stall"),
		rebuildShortfall: r.Counter("vebo_rebuilds_total", "cause", "repair-shortfall"),
		rebuildForced:    r.Counter("vebo_rebuilds_total", "cause", "forced"),
		resorts:          r.Counter("vebo_resorts_total"),
		compactions:      r.Counter("vebo_compactions_total"),
		admitted:         r.Counter("vebo_admitted_total"),
		headroomSpills:   r.Counter("vebo_headroom_spill_total"),
		batchNS:          r.Histogram("vebo_batch_ns"),
		repairNS:         r.Histogram("vebo_repair_ns"),
		rebuildNS:        r.Histogram("vebo_rebuild_ns"),
		growNS:           r.Histogram("vebo_grow_ns"),
		compactNS:        r.Histogram("vebo_compact_ns"),
		epoch:            r.Gauge("vebo_epoch"),
		vertices:         r.Gauge("vebo_vertices"),
		liveEdges:        r.Gauge("vebo_live_edges"),
		edgeImb:          r.Gauge("vebo_edge_imbalance"),
		vertImb:          r.Gauge("vebo_vertex_imbalance"),
		effThresh:        r.Gauge("vebo_effective_threshold"),
		pendingOps:       r.Gauge("vebo_pending_ops"),
		headroomSlots:    slots,
	}
}

// syncGauges refreshes the instantaneous-state gauges after a lifecycle step.
func (d *Graph) syncGauges() {
	if d.m.epoch == nil {
		return
	}
	d.m.epoch.Set(d.epoch)
	d.m.vertices.Set(int64(d.n))
	d.m.liveEdges.Set(d.liveEdges)
	d.m.edgeImb.Set(d.EdgeImbalance())
	d.m.vertImb.Set(d.VertexImbalance())
	d.m.effThresh.Set(d.effEdgeThreshold())
	d.m.pendingOps.Set(d.PendingOps())
	slotted := d.segCap != nil && d.ordPlace == d.placeEpoch
	for q, g := range d.m.headroomSlots {
		var free int64
		if slotted {
			free = d.segCap[q] - d.partVerts[q]
		}
		g.Set(free)
	}
}

// AddsDels expands the net delta into explicit insertion and deletion lists
// (multiplicities unrolled).
func (vd ViewDelta) AddsDels() (adds, dels []graph.Edge) {
	for e, c := range vd.Net {
		for ; c > 0; c-- {
			adds = append(adds, e)
		}
		for ; c < 0; c++ {
			dels = append(dels, e)
		}
	}
	return adds, dels
}
