package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchFile is the part of BENCHMARK.json steadiness mode reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread is one (workload, metric) row of the steadiness summary.
type spread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	IQRShare float64   `json:"iqr_share"` // (q3 - q1) / median
	Bound    float64   `json:"bound"`
	Fits     bool      `json:"fits"`   // iqr_share <= bound (setup_s is exempt)
	Steady   bool      `json:"steady"` // iqr_share < bound / 3
}

// runSteady runs each workload n times as a child process, seeds 1..n,
// and reports each end-to-end metric's median and interquartile spread
// against its bound. It fails when a spread other than setup_s's exceeds
// its bound or a run fails.
func runSteady(cfg config, n int, out string) error {
	const benchPath = "BENCHMARK.json"
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	seconds := float64(bf.RunSeconds)
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seconds" {
			seconds = cfg.seconds
		}
	})
	var names []string
	for _, w := range bf.Workloads {
		if cfg.workload == "" || cfg.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload %q in %s", cfg.workload, benchPath)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	var rows []spread
	ok := true
	for _, w := range names {
		values := make(map[string][]float64)
		for seed := 1; seed <= n; seed++ {
			res, err := runChild(self, w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				ok = false
			}
			fmt.Fprintf(os.Stderr, "%s seed %d:", w, seed)
			for _, m := range bf.EndToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
				fmt.Fprintf(os.Stderr, " %s=%.4g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		for _, m := range bf.EndToEnd {
			r := summarize(values[m.Name])
			r.Workload, r.Metric, r.Unit, r.Bound = w, m.Name, m.Unit, m.Bound
			r.Fits = r.IQRShare <= m.Bound || m.Name == "setup_s"
			r.Steady = r.IQRShare < m.Bound/3
			ok = ok && r.Fits
			rows = append(rows, r)
		}
	}

	fmt.Printf("%-15s %-21s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "iqr", "share", "bound", "verdict")
	for _, r := range rows {
		verdict := "steady"
		switch {
		case !r.Fits:
			verdict = "OUT OF BOUND"
		case r.Metric == "setup_s" && r.IQRShare > r.Bound:
			verdict = "exempt (setup)"
		case !r.Steady:
			verdict = "fits, above bound/3"
		}
		fmt.Printf("%-15s %-21s %12.5g %12.5g %8.4f %6.3f  %s\n",
			r.Workload, r.Metric, r.Median, r.Q3-r.Q1, r.IQRShare, r.Bound, verdict)
	}
	if out != "" {
		summary := map[string]any{
			"runs_per_workload": n,
			"seeds":             "1.." + strconv.Itoa(n),
			"run_seconds":       seconds,
			"nproc":             runtime.NumCPU(),
			"gomaxprocs":        runtime.GOMAXPROCS(0),
			"go":                runtime.Version(),
			"date":              time.Now().UTC().Format(time.RFC3339),
			"metrics":           rows,
		}
		b, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a run failed or a spread exceeds its bound")
	}
	return nil
}

// runChild runs one workload in a child process and parses its last line.
func runChild(self, w string, seed int, seconds float64) (result, error) {
	var res result
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), which is how the spread of a benchmark metric is judged.
func summarize(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	r := spread{Values: values}
	if len(s) < 2 {
		if len(s) == 1 {
			r.Median, r.Q1, r.Q3 = s[0], s[0], s[0]
		}
		return r
	}
	q := func(i int) float64 {
		const parts = 4
		m := len(s) + 1
		j := i * m / parts
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*parts)
		return (s[j-1]*(parts-delta) + s[j]*delta) / parts
	}
	r.Q1, r.Median, r.Q3 = q(1), q(2), q(3)
	if r.Median != 0 {
		r.IQRShare = (r.Q3 - r.Q1) / r.Median
	}
	return r
}
