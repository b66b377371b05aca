// Command perfbench is scanshare's canonical benchmark. Given a workload name
// and a seed it generates the inputs, runs the workload against the engine's
// public API with default engine options, checks every output against an
// oracle, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of standard output.
//
//	go run . -workload scan-cpu -seed 1 -seconds 10 -trace 0
//
// The workloads, metrics and bounds are declared in manifest.go; -manifest
// rewrites BENCHMARK.json and perfbench/workloads.json from those
// declarations. The process exits non-zero when any oracle fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few pages, for the package's tests.
	tiny bool
	// spansPath is where the benchmark's own spans are written; "" skips.
	spansPath string
	// corruptRef flips the oracle's reference before the timed phase, so
	// tests can show that a wrong result fails the run.
	corruptRef bool
	log        io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		rc       runConfig
		traceOn  int
		manifest bool
	)
	flag.StringVar(&rc.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&rc.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&rc.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceOn, "trace", 0, "1: report per-layer metrics from counters, probes and a traced run")
	flag.BoolVar(&manifest, "manifest", false, "rewrite BENCHMARK.json and perfbench/workloads.json in the directory given as argument (default ..)")
	flag.Parse()

	if manifest {
		dir := ".."
		if flag.NArg() > 0 {
			dir = flag.Arg(0)
		}
		if err := writeManifests(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rc.trace = traceOn == 1
	rc.log = os.Stderr
	rc.spansPath = filepath.Join(".bench_build", "perfbench-spans",
		fmt.Sprintf("%s-seed%d.jsonl.gz", rc.workload, rc.seed))

	res, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// outcome is what a workload measured; run turns it into metrics.
type outcome struct {
	attempted, failed int64

	setups []time.Duration

	// samples are the timed phase's batches (serve: closed-loop slices);
	// pages_per_s, queries_per_s and cpu_us_per_page are their medians.
	samples []sample
	// lat holds one latency per query, from its due time to completion.
	lat     []time.Duration
	tailPct float64
	// pages and allocs cover the whole timed phase.
	pages  int64
	allocs uint64

	// layer holds the per-layer values the workload computed itself
	// (counters, traced breakdown); probes and generic values are added by
	// run.
	layer map[string]float64
}

func run(rc runConfig) (*result, error) {
	w, ok := findWorkload(rc.workload)
	if !ok {
		names := make([]string, 0, len(workloads))
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %v)", rc.workload, names)
	}
	if rc.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	// The benchmark's own spans are kept on traced runs only; untraced runs
	// give the end-to-end figures and carry nothing extra.
	var spans *spanLog
	if rc.trace {
		spans = newSpanLog()
	}
	out, err := w.run(rc, spans)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.workload, err)
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", rc.workload)
	}
	if !rc.trace {
		setup := make([]float64, len(out.setups))
		for i, d := range out.setups {
			setup[i] = d.Seconds()
		}
		var pps, qps, cpp []float64
		for _, s := range out.samples {
			pps = append(pps, float64(s.pages)/s.wall.Seconds())
			qps = append(qps, float64(s.queries)/s.wall.Seconds())
			cpp = append(cpp, float64(s.cpu.Nanoseconds())/1000/float64(max(s.pages, 1)))
		}
		vals := map[string]float64{
			"setup_s":         medianFloat(setup),
			"pages_per_s":     medianFloat(pps),
			"queries_per_s":   medianFloat(qps),
			"query_p50_ms":    ms(percentile(out.lat, 0.5)),
			"query_tail_ms":   ms(percentile(out.lat, out.tailPct)),
			"cpu_us_per_page": medianFloat(cpp),
			"rss_peak_mb":     peakRSSMB(),
		}
		for _, m := range endToEnd {
			v, ok := vals[m.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %q not computed", m.Name)
			}
			res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		}
	} else {
		vals := out.layer
		vals["runtime.allocs_per_page"] = float64(out.allocs) / float64(max(out.pages, 1))
		vals["failed_frac"] = float64(out.failed) / float64(out.attempted)
		if err := runProbes(rc, spans, vals); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for _, m := range perLayer {
			v, ok := vals[m.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %q not computed", m.Name)
			}
			res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		}
		var extra []string
		for name := range vals {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return nil, fmt.Errorf("per-layer values not declared in the manifest: %v", extra)
		}
	}
	if spans != nil && rc.spansPath != "" {
		if err := spans.write(rc.spansPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}
