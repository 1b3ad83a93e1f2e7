package main

import (
	"fmt"
	"math"
	"time"

	vebo "repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/obs"
)

// static-rmat sizes. The rmat recipe at this scale is a 2^14-vertex RMAT
// graph padded with isolated vertices to ~69% zero degree (DESIGN.md §1).
const (
	staticRecipe = "rmat"
	staticScale  = 0.5
	staticParts  = 384 // the paper's GraphGrind partition count
	// staticSetupsPerInput repeats each instance's set-up, so setup_s is a
	// median of 12 set-ups rather than 4.
	staticSetupsPerInput = 3
	prIters              = 10
	bpIters              = 5
	prdEps               = 1e-7
)

// engineOpts sizes every engine's virtual NUMA machine to two sockets of
// one thread: sockets × threads stays within a two-core host, so kernel
// goroutines never oversubscribe it.
var engineOpts = vebo.EngineOptions{Sockets: 2, ThreadsPerSocket: 1}

var systems = []vebo.System{vebo.Ligra, vebo.Polymer, vebo.GraphGrind}

// staticSet is one set-up's output: the ordering, the relabeled graph and
// its transpose, and a forward and a transposed engine per system.
type staticSet struct {
	res     *vebo.Result
	rg, rgT *vebo.Graph
	fwd     [3]vebo.Engine
	bwd     [3]vebo.Engine
}

// setupTimes splits one set-up's wall time by layer.
type setupTimes struct {
	published
	total  time.Duration
	engine [3]time.Duration // forward engine build per system
}

// published is one publication of a graph: its VEBO ordering and the
// relabeled graph every engine is built from.
type published struct {
	res            *vebo.Result
	rg             *vebo.Graph
	reorder, apply time.Duration
}

// publishStatic computes g's ordering and relabels g with it.
func publishStatic(g *vebo.Graph, rep *report, parent *obs.ActiveSpan) (published, error) {
	var p published
	t := time.Now()
	sp := rep.start("core.Reorder", "core", parent)
	res, err := vebo.Reorder(g, staticParts)
	sp.End()
	p.reorder = time.Since(t)
	if err != nil {
		return p, err
	}
	p.res = res
	t = time.Now()
	sp = rep.start("Result.Apply", "graph", parent)
	p.rg, err = res.Apply(g)
	sp.End()
	p.apply = time.Since(t)
	return p, err
}

// buildStatic runs the paper pipeline from a generated graph to engines
// ready to answer: Reorder, Apply, Transpose and one forward and one
// transposed NewEngine per system.
func buildStatic(g *vebo.Graph, rep *report, parent *obs.ActiveSpan) (*staticSet, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	p, err := publishStatic(g, rep, parent)
	st.published = p
	if err != nil {
		return nil, st, err
	}
	s := &staticSet{res: p.res, rg: p.rg}
	sp := rep.start("Graph.Transpose", "graph", parent)
	s.rgT = s.rg.Transpose()
	sp.End()
	for i, sys := range systems {
		opts := engineOpts
		switch sys {
		case vebo.Polymer:
			// One partition per socket, cut on VEBO's boundaries.
			opts.Bounds = core.CoarsenBounds(p.res.Boundaries(), opts.Sockets)
		case vebo.GraphGrind:
			opts.Partitions = staticParts
			opts.Bounds = p.res.Boundaries()
		}
		t := time.Now()
		sp := rep.start("NewEngine", "engine", parent).SetSys(sys.String())
		s.fwd[i], err = vebo.NewEngine(sys, s.rg, opts)
		sp.End()
		st.engine[i] = time.Since(t)
		if err != nil {
			return nil, st, fmt.Errorf("%v engine: %w", sys, err)
		}
		opts.Bounds = nil
		sp = rep.start("NewEngine.transposed", "engine", parent).SetSys(sys.String())
		s.bwd[i], err = vebo.NewEngine(sys, s.rgT, opts)
		sp.End()
		if err != nil {
			return nil, st, fmt.Errorf("%v transposed engine: %w", sys, err)
		}
	}
	st.total = time.Since(t0)
	return s, st, nil
}

// staticInputs are the per-algorithm arguments, fixed for a run.
type staticInputs struct {
	root      vebo.VertexID // highest out-degree vertex (relabeled space)
	x, prior  []float64
	edgeCount int64
}

// runAlg runs algorithm a on system i and returns its answer.
func (s *staticSet) runAlg(a string, i int, in *staticInputs) any {
	e := s.fwd[i]
	switch a {
	case "pagerank":
		return vebo.PageRank(e, prIters)
	case "prdelta":
		return vebo.PageRankDelta(e, prIters, prdEps)
	case "bfs":
		return vebo.BFS(e, in.root)
	case "cc":
		return vebo.CC(e)
	case "spmv":
		return vebo.SPMV(e, in.x)
	case "bellmanford":
		return vebo.BellmanFord(e, in.root)
	case "bc":
		return vebo.BC(e, s.bwd[i], in.root)
	case "bp":
		return vebo.BP(e, bpIters, in.prior)
	}
	panic("unknown algorithm " + a)
}

func runStatic(cfg config, rep *report) error {
	rep.noteShape(staticRecipe, staticScale)

	// Three set-ups per input instance; setup_s and the set-up layer
	// times are medians over all of them, and the rounds use the last set-up
	// of each instance.
	var setups, reorders, applies, publishes, rates []float64
	var engines [3][]float64
	var graphs []*vebo.Graph
	var sets []*staticSet
	var ins []*staticInputs
	var balance []imbalance
	for k := 0; k < inputInstances; k++ {
		g, err := vebo.Generate(staticRecipe, staticScale, inputSeed(cfg.seed, k))
		if err != nil {
			return err
		}
		rep.noteInput(g)
		var s *staticSet
		for j := 0; j < staticSetupsPerInput; j++ {
			s = nil // let the previous set-up go before building the next
			rep.sampleHeap()
			sp := rep.root("setup", "bench")
			var st setupTimes
			s, st, err = buildStatic(g, rep, sp)
			sp.End()
			rep.op(err)
			if err != nil {
				return err
			}
			setups = append(setups, st.total.Seconds())
			reorders = append(reorders, ms(st.reorder))
			applies = append(applies, ms(st.apply))
			for i := range engines {
				engines[i] = append(engines[i], ms(st.engine[i]))
			}
		}
		rep.sampleHeap()

		in := &staticInputs{root: maxOutDegree(s.rg), edgeCount: s.rg.NumEdges()}
		n := s.rg.NumVertices()
		in.x = make([]float64, n)
		in.prior = make([]float64, n)
		for v := range in.x {
			in.x[v] = float64(v%7) + 1
			in.prior[v] = 0.01 * float64(v%11)
		}
		// Untimed correctness pass: every algorithm on every system,
		// against the sequential references where one exists and across
		// systems otherwise.
		checkStatic(s, in, rep)
		graphs = append(graphs, g)
		sets = append(sets, s)
		ins = append(ins, in)
		balance = append(balance, imbalance{s.res.EdgeImbalance(), s.res.VertexImbalance(),
			in.edgeCount, int64(n), staticParts})
	}

	// Timed phase: rounds of all eight algorithms on all three systems.
	// A traced run alternates traced and untraced rounds.
	rep.timedPhase()
	var calls, callMeans, rounds, tracedRounds, plainRounds []float64
	kernels := make(map[string][]float64)
	modeled := make(map[string]float64)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		// Each instance takes two rounds in a row, the first traced in a
		// traced run, so both halves of the overhead split see every input.
		k := (round / 2) % inputInstances
		s, in := sets[k], ins[k]
		traced := cfg.trace && round%2 == 0
		var rsp *obs.ActiveSpan
		if traced {
			rsp = rep.root("round", "bench")
		}
		// Each round first publishes its instance's graph afresh, so
		// publish samples spread over the whole run like the rounds.
		p, err := publishStatic(graphs[k], rep, rsp)
		rep.op(err)
		if err != nil {
			return err
		}
		pub := p.reorder + p.apply
		publishes = append(publishes, ms(pub))
		rates = append(rates, float64(p.rg.NumEdges())/pub.Seconds())
		if traced {
			reorders = append(reorders, ms(p.reorder))
			applies = append(applies, ms(p.apply))
		}
		rep.sampleHeap()

		var roundDur time.Duration
		for i, sys := range systems {
			for _, a := range algNames {
				e := s.fwd[i]
				e.Metrics().Reset()
				sp := rep.start("kernel:"+a, "kernel", rsp).SetSys(sys.String())
				t := time.Now()
				s.runAlg(a, i, in)
				d := time.Since(t)
				sp.End()
				rep.op(nil)
				roundDur += d
				calls = append(calls, ms(d))
				key := "kernel." + a + "." + sys.String()
				if traced {
					kernels[key] = append(kernels[key], ms(d))
					if k == 0 {
						modeled[key] = float64(e.Metrics().ModelTime)
					}
				}
				e.Metrics().Reset()
				rep.sampleHeap()
			}
		}
		rsp.End()
		rounds = append(rounds, ms(roundDur))
		callMeans = append(callMeans, ms(roundDur)/float64(len(systems)*len(algNames)))
		if traced {
			tracedRounds = append(tracedRounds, ms(roundDur))
		} else {
			plainRounds = append(plainRounds, ms(roundDur))
		}
	}
	rep.record["rounds"] = len(rounds)

	rep.set("setup_s", "s", quantile(setups, 0.5))
	// With no update stream, the graph itself is the one update: publishing
	// it means computing the ordering and the relabeled graph the engines
	// are built from.
	rep.set("updates_per_s", "1/s", quantile(rates, 0.5))
	rep.setSeries("publish", publishes, staticRoundTail)
	rep.setQuery(callMeans, calls, staticQueryTail)
	// A round refreshes every standing (algorithm, system) answer.
	rep.set("fresh_answer_p50_ms", "ms", quantile(rounds, 0.5))
	rep.set("fresh_answer_tail_ms", "ms", quantile(rounds, staticRoundTail))
	rep.record["fresh_answer_tail_pct"] = 100 * staticRoundTail
	rep.setImbalance(balance)

	rep.set("core.reorder_ms", "ms", quantile(reorders, 0.5))
	rep.set("graph.relabel_ms", "ms", quantile(applies, 0.5))
	for i, sys := range systems {
		rep.set("engine.build_ms."+sys.String(), "ms", quantile(engines[i], 0.5))
	}
	rep.set("engine.builds", "count", float64(2*len(systems)))
	for k, xs := range kernels {
		rep.set(k+"_ms", "ms", quantile(xs, 0.5))
		rep.set(k+".modeled_units", "units", modeled[k])
	}
	rep.overhead(tracedRounds, plainRounds)
	rep.setCommon()
	return nil
}

// Tail percentiles of the static-rmat series, each the highest of p75,
// p90, p95 and p99 with at least ten samples beyond it in a 20-second run
// at half the measured speed (about 80 rounds, each one publication and 24
// calls, at full speed).
const (
	staticQueryTail = 0.95
	staticRoundTail = 0.75
)

func maxOutDegree(g *vebo.Graph) vebo.VertexID {
	best := vebo.VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(vebo.VertexID(v)) > g.OutDegree(best) {
			best = vebo.VertexID(v)
		}
	}
	return best
}

// checkStatic compares every (algorithm, system) answer with a sequential
// reference from internal/algorithms, or, for the two algorithms without
// one (PageRankDelta, BP), with the Ligra answer.
func checkStatic(s *staticSet, in *staticInputs, rep *report) {
	rg := s.rg
	refs := map[string]any{
		"pagerank":    algorithms.RefPageRank(rg, prIters),
		"bfs":         algorithms.RefBFSDepths(rg, in.root),
		"cc":          algorithms.RefCC(rg),
		"spmv":        algorithms.RefSPMV(rg, in.x),
		"bellmanford": algorithms.RefSSSP(rg, in.root),
		"bc":          algorithms.RefBC(rg, in.root),
	}
	for _, a := range algNames {
		for i, sys := range systems {
			got := s.runAlg(a, i, in)
			rep.op(nil)
			s.fwd[i].Metrics().Reset()
			want, ok := refs[a]
			if !ok {
				if i == 0 {
					refs[a] = got // cross-system reference
					continue
				}
				want = refs[a]
			}
			if a == "bfs" {
				got = algorithms.Depths(got.([]int32), in.root)
			}
			if msg := compare(got, want, 1e-8); msg != "" {
				rep.wrongAnswer("static %s on %v: %s", a, sys, msg)
			}
		}
	}
}

// compare returns "" when got equals want (floats within a relative
// tolerance), or a description of the first difference.
func compare(got, want any, tol float64) string {
	switch w := want.(type) {
	case []float64:
		g := got.([]float64)
		if len(g) != len(w) {
			return fmt.Sprintf("length %d, want %d", len(g), len(w))
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > tol*math.Max(1e-12, math.Abs(w[i])) {
				return fmt.Sprintf("[%d] = %.12g, want %.12g", i, g[i], w[i])
			}
		}
	case []int32:
		return compareExact(got.([]int32), w)
	case []uint32:
		return compareExact(got.([]uint32), w)
	case []int64:
		return compareExact(got.([]int64), w)
	default:
		return fmt.Sprintf("unexpected answer type %T", want)
	}
	return ""
}

func compareExact[T comparable](got, want []T) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}
