package main

import "fmt"

// metricDef names one printed metric. BENCHMARK.json lists the same names,
// units and directions (metrics_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
}

var (
	algNames = []string{"pagerank", "prdelta", "bfs", "cc", "spmv", "bellmanford", "bc", "bp"}
	sysNames = []string{"ligra", "polymer", "graphgrind"}
	refAlgs  = []string{"bfs", "cc", "sssp", "pagerank"}
	refPaths = []string{"cached", "scratch-seed", "refined", "scratch-fallback"}
)

// endToEnd are the metrics a user of the system sees; an untraced run
// prints exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"updates_per_s", "1/s", "higher"},
	{"publish_p50_ms", "ms", "lower"},
	{"publish_tail_ms", "ms", "lower"},
	{"fresh_answer_p50_ms", "ms", "lower"},
	{"fresh_answer_tail_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_tail_ms", "ms", "lower"},
	{"edge_imbalance", "ratio", "lower"},
	{"vertex_imbalance", "ratio", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"success_rate", "ratio", "higher"},
}

// perLayer are the single-layer metrics a traced run prints. A layer that
// does no work on a workload reports 0.
var perLayer = func() []metricDef {
	l := []metricDef{
		{"dynamic.batch_p50_ms.first_decile", "ms", "lower"},
		{"dynamic.batch_p50_ms.last_decile", "ms", "lower"},
		{"dynamic.apply_self_ms.p50", "ms", "lower"},
		{"dynamic.maintain_ms.mean", "ms", "lower"},
		{"ingest.unattributed_ms.p50", "ms", "lower"},
	}
	for _, c := range []string{"repairs", "swaps", "rotations", "rebuilds", "resorts", "compactions", "admitted", "headroom_spills"} {
		l = append(l, metricDef{"dynamic." + c, "count", "lower"})
	}
	l = append(l,
		metricDef{"publish.self_ms.p50", "ms", "lower"},
		metricDef{"publish.self_ms.last_decile_p50", "ms", "lower"},
		metricDef{"publish.delta_backlog", "count", "lower"},
		metricDef{"graph.relabel_ms", "ms", "lower"},
		metricDef{"graph.patch_ms.p50", "ms", "lower"},
		metricDef{"graph.patch_ms.tail", "ms", "lower"},
		metricDef{"graph.build_ms", "ms", "lower"},
		metricDef{"graph.patches", "count", "higher"},
		metricDef{"graph.builds", "count", "lower"},
		metricDef{"graph.edges_patched", "count", "lower"},
		metricDef{"graph.edges_relabeled", "count", "lower"},
		metricDef{"graph.edges_reused", "count", "higher"},
	)
	for _, s := range sysNames {
		l = append(l, metricDef{"engine.build_ms." + s, "ms", "lower"})
	}
	l = append(l,
		metricDef{"engine.patch_ms.graphgrind.p50", "ms", "lower"},
		metricDef{"engine.patch_ms.graphgrind.tail", "ms", "lower"},
		metricDef{"engine.builds", "count", "lower"},
		metricDef{"engine.patches", "count", "higher"},
		metricDef{"engine.partitions_rebuilt", "count", "lower"},
		metricDef{"engine.partitions_reused", "count", "higher"},
	)
	for _, a := range refAlgs {
		l = append(l, metricDef{"refine." + a + "_ms", "ms", "lower"})
	}
	for _, a := range refAlgs {
		for _, p := range refPaths {
			better := "lower"
			if p == "refined" || p == "cached" {
				better = "higher"
			}
			l = append(l, metricDef{"refine.path." + a + "." + p, "count", better})
		}
	}
	l = append(l,
		metricDef{"refine.reset_vertices", "count", "lower"},
		metricDef{"refine.frontier_vertices", "count", "lower"},
	)
	for _, a := range algNames {
		for _, s := range sysNames {
			l = append(l, metricDef{"kernel." + a + "." + s + "_ms", "ms", "lower"})
		}
	}
	for _, a := range algNames {
		for _, s := range sysNames {
			l = append(l, metricDef{"kernel." + a + "." + s + ".modeled_units", "units", "lower"})
		}
	}
	return append(l,
		metricDef{"core.reorder_ms", "ms", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"obs.trace_overhead_pct", "%", "lower"},
		metricDef{"obs.spans_dropped", "count", "lower"},
	)
}()

// selectMetrics narrows the collected metrics to exactly the printed list
// of the run's mode. Every end-to-end metric must have been measured; a
// per-layer metric of a layer the workload never entered reads 0.
func (r *report) selectMetrics() error {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok && !r.cfg.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if m.Unit != "" && m.Unit != d.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	r.metrics = out
	return nil
}
