// Command perfbench is the repository benchmark: it drives three named
// workloads through the public vebo facade in one process and prints every
// metric by name and unit. An untraced run (--trace 0) reports the
// end-to-end metrics; a traced run (--trace 1) times the calls into each
// layer separately and reports the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Earlier lines carry the run record (seed, host, topology, sizes) so runs
// from mismatched configurations are not compared. --steady N runs each
// workload N times as child processes and reports each end-to-end metric's
// median and interquartile spread against the bounds in BENCHMARK.json.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one named input set (BENCHMARK.json and README.md say why
// each was chosen). Run measures for the configured time and fills rep; it
// returns an error only when the workload could not run at all (a wrong
// answer is recorded in rep and fails the command later).
type workload struct {
	name string
	run  func(cfg config, rep *report) error
}

var workloads = []workload{
	{"static-rmat", runStatic},
	{"ingest-churn", runChurn},
	{"serve-standing", runServe},
}

// config is one run's settings, all from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var (
		cfg    config
		trace  int
		steady int
		out    string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.IntVar(&steady, "steady", 0, "steadiness mode: run each workload this many times with seeds 1..N")
	flag.StringVar(&out, "out", "", "steadiness mode: also write the summary JSON to this file")
	flag.Parse()
	cfg.trace = trace == 1

	if steady > 0 {
		if err := runSteady(cfg, steady, out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	rep := newReport(cfg)
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := rep.writeTrace(filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-%d.json", w.name, cfg.seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.selectMetrics(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.record["workload"] = w.name
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed or answered wrong\n",
			w.name, rep.failed, rep.attempted)
		for _, m := range rep.wrong {
			fmt.Fprintln(os.Stderr, "  ", m)
		}
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostRecord describes the configuration a result came from.
func hostRecord(cfg config) map[string]any {
	return map[string]any{
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// print writes the run record line and then the result line.
func (r *report) print(w io.Writer) error {
	rec, err := json.Marshal(map[string]any{"record": r.record})
	if err != nil {
		return err
	}
	res := result{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, line)
	return err
}
