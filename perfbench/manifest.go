package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"scanshare"
)

// This file is the benchmark's single declaration of its workloads and
// metrics. BENCHMARK.json (the repository-level contract) and
// perfbench/workloads.json (each workload's shape and the map from layer
// metrics to the end-to-end metrics they should move) are generated from it
// with -manifest, and TestManifestsUpToDate keeps them in step.

// runSeconds is the timed phase's length in the committed contract.
const runSeconds = 15

// workloadDef is one named workload.
type workloadDef struct {
	Name string
	Why  string
	// Loop states how the workload offers load.
	Loop string
	// shape returns the workload's sizes, delays and rates for
	// workloads.json.
	shape func() (any, error)
	run   func(rc runConfig, spans *spanLog) (*outcome, error)
}

var workloads = []workloadDef{
	{
		Name: "scan-cpu",
		Why: "64 full scans of a table 20x the pool with no delays: wall time is engine CPU, " +
			"dominated by the SSM's ReportProgress, pool contention and delivery.",
		Loop:  "closed: one batch of 64 scans submitted at once per RunRealtime call, batches back to back",
		shape: scanShape(scanCPUParams),
		run:   runScanWorkload(scanCPUParams),
	},
	{
		Name: "scan-io",
		Why: "the paper's setting: seeded arrivals of half-table scans at a steady rate with device and page delays on, " +
			"so placement, grouping, throttling and eviction decide reads and latency.",
		Loop:  "open within a batch: one seeded start time (StartDelay) per equal slot of the arrival window, one RunRealtime call per batch",
		shape: scanShape(scanIOParams),
		run:   runScanWorkload(scanIOParams),
	},
	{
		Name: "agg",
		Why: "8 shared Q1-like GROUP BYs and 8 filtered Q6-like sums on a lineitem that fits the pool: " +
			"decode, fold and shared aggregation state dominate.",
		Loop:  "closed: one batch of 16 queries per RunRealtimeAggregates call (state sharing on), batches back to back",
		shape: aggShape,
		run:   runAgg,
	},
	{
		Name: "serve",
		Why: "short clustered-range SQL over 2 loopback connections to the server: per-request compile, " +
			"wire, admission and RunRealtime set-up dominate page work.",
		Loop: "open loop (one seeded arrival per 1/rate slot, pipelined on each connection) for the first half of the run gives latency; " +
			"closed loop (2 connections, closed_loop_window requests in flight on each) for the second half gives capacity",
		shape: serveShape,
		run:   runServe,
	},
}

func scanShape(p scanParams) func() (any, error) {
	return func() (any, error) {
		return struct {
			scanParams
			FitsPool bool `json:"fits_pool"`
		}{p, p.TablePages <= p.PoolPages}, nil
	}
}

// tablePages loads the named generated tables at seed 1 and returns their
// page counts; other seeds differ by a page or so.
func tablePages(load func(*scanshare.Engine) error) (map[string]int, error) {
	eng, err := scanshare.New(scanshare.Config{BufferPoolPages: 1})
	if err != nil {
		return nil, err
	}
	if err := load(eng); err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, name := range []string{"lineitem", "orders"} {
		if t, err := eng.Lookup(name); err == nil {
			out[name] = t.NumPages()
		}
	}
	return out, nil
}

func aggShape() (any, error) {
	pages, err := tablePages(func(eng *scanshare.Engine) error {
		_, err := loadLineitem(eng, aggDefault.Rows, 1)
		return err
	})
	return struct {
		aggParams
		TablePages map[string]int `json:"table_pages"`
		FitsPool   bool           `json:"fits_pool"`
	}{aggDefault, pages, pages["lineitem"] <= aggDefault.PoolPages}, err
}

func serveShape() (any, error) {
	pages, err := tablePages(func(eng *scanshare.Engine) error {
		if _, err := loadLineitem(eng, serveDefault.LineRows, 1); err != nil {
			return err
		}
		_, err := loadOrders(eng, serveDefault.OrderRows, 1)
		return err
	})
	return struct {
		serveParams
		TablePages map[string]int `json:"table_pages"`
		FitsPool   bool           `json:"fits_pool"`
	}{serveDefault, pages, pages["lineitem"]+pages["orders"] <= serveDefault.PoolPages}, err
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// e2eMetric is one end-to-end metric with its regression bound: the share
// of the parent's median by which it may worsen.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Means  string  `json:"-"`
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, "median of 9 set-ups per run: build the engine, load the tables, start the server"},
	{"pages_per_s", "1/s", "higher", 0.25, "median over batches (serve: closed-loop slices) of logical scan pages delivered per wall second"},
	{"queries_per_s", "1/s", "higher", 0.25, "median over batches (serve: closed-loop slices, capacity at 2 connections) of queries completed per wall second"},
	{"query_p50_ms", "ms", "lower", 0.25, "median query latency from due time (batch call plus StartDelay) to last page delivered (serve: open-loop phase, from send to response received)"},
	{"query_tail_ms", "ms", "lower", 0.25, "latency at the workload's shape.tail_percentile; every run has well over 10 samples beyond it (p90: higher percentiles swung by more than the bound between runs on a 2-vCPU VM)"},
	{"cpu_us_per_page", "us", "lower", 0.25, "median over batches (serve: closed-loop slices) of process CPU (user+sys, getrusage) per logical page"},
	{"rss_peak_mb", "MB", "lower", 0.1, "peak resident memory (VmHWM) over the timed phase, the high-water mark reset after set-up"},
}

// layerMetric is one per-layer metric and what it should move.
type layerMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Source string   `json:"source"`
	Moves  []string `json:"moves,omitempty"`
	Steady []string `json:"predicts_no_change,omitempty"`
}

func coreProbeMetrics() []layerMetric {
	var out []layerMetric
	for _, n := range coreProbeScans {
		out = append(out, layerMetric{Name: fmt.Sprintf("core.report_progress_us.n%d", n), Unit: "us", Better: "lower",
			Source: fmt.Sprintf("probe: Manager.ReportProgress with %d active scans at the scan-cpu extent cadence", n),
			Moves:  []string{"pages_per_s@scan-cpu", "cpu_us_per_page@scan-cpu"}, Steady: []string{"query_p50_ms@serve"}})
	}
	for _, n := range coreProbeScans {
		out = append(out, layerMetric{Name: fmt.Sprintf("core.report_progress_allocs.n%d", n), Unit: "allocs", Better: "lower",
			Source: fmt.Sprintf("probe: heap allocations per ReportProgress call with %d active scans", n),
			Moves:  []string{"cpu_us_per_page@scan-cpu"}})
	}
	return out
}

var perLayer = append(coreProbeMetrics(), []layerMetric{
	{"core.throttle_s_per_query", "s", "lower", "counters: SSM-inserted throttle sleep per query over the timed phase",
		[]string{"query_p50_ms@scan-io"}, nil},
	{"core.throttle_events_per_kpage", "count/kpage", "lower", "counters: throttle events per 1000 logical pages",
		[]string{"query_p50_ms@scan-io"}, nil},
	{"core.placement_join_frac", "frac", "higher", "counters: share of scans placed at an ongoing scan's position",
		[]string{"query_p50_ms@scan-io"}, nil},
	{"buffer.hit_ratio", "frac", "higher", "counters: pool hits per logical page",
		[]string{"query_p50_ms@scan-io", "query_tail_ms@scan-io"}, nil},
	{"buffer.evictions_per_page", "count/page", "lower", "counters: pool evictions per logical page",
		[]string{"query_p50_ms@scan-io", "query_tail_ms@scan-io"}, nil},
	{"buffer.pool_wait_s", "s", "lower", "traced run: pool-wait component of the span breakdown, per query",
		[]string{"pages_per_s@scan-cpu"}, nil},
	{"buffer.busy_retries_per_kpage", "count/kpage", "lower", "counters: acquires that backed off, per 1000 logical pages",
		[]string{"pages_per_s@scan-cpu"}, nil},
	{"buffer.acquire_release_ns", "ns", "lower", "probe: Acquire+Release on the hit path of a default pool",
		[]string{"pages_per_s@scan-cpu"}, nil},
	{"buffer.acquire_release_allocs", "allocs", "lower", "probe: heap allocations per Acquire+Release",
		[]string{"cpu_us_per_page@scan-cpu"}, nil},
	{"disk.reads_per_page", "count/page", "lower", "counters: physical reads (pool misses not aborted) per logical page",
		[]string{"query_p50_ms@scan-io", "query_tail_ms@scan-io"}, nil},
	{"disk.read_wait_s", "s", "lower", "traced run: read component of the span breakdown, per query",
		[]string{"query_p50_ms@scan-io", "query_tail_ms@scan-io"}, nil},
	{"realtime.delivery_wait_s", "s", "lower", "traced run: delivery component of the span breakdown, per query",
		[]string{"pages_per_s@scan-cpu"}, nil},
	{"realtime.reads_coalesced_per_kpage", "count/kpage", "higher", "counters: misses that joined an in-flight read, per 1000 logical pages",
		[]string{"pages_per_s@scan-cpu"}, nil},
	{"realtime.process_s", "s", "lower", "traced run: process component (scan time not attributed to any wait), per query",
		[]string{"pages_per_s@scan-cpu"}, nil},
	{"record.decode_ns_per_tuple", "ns", "lower", "probe: heap.View + ForEach (record.Decode) over captured lineitem pages",
		[]string{"pages_per_s@agg", "cpu_us_per_page@agg"}, []string{"pages_per_s@scan-cpu"}},
	{"record.decode_allocs_per_tuple", "allocs", "lower", "probe: heap allocations per decoded tuple",
		[]string{"cpu_us_per_page@agg"}, nil},
	{"exec.fold_ns_per_tuple", "ns", "lower", "probe: GroupByConsumer.OnPage with the Q1-like shape over captured lineitem pages",
		[]string{"query_p50_ms@agg"}, nil},
	{"exec.fold_allocs_per_tuple", "allocs", "lower", "probe: heap allocations per folded tuple",
		[]string{"query_p50_ms@agg"}, nil},
	{"exec.fold_s", "s", "lower", "traced run: fold component of the span breakdown, per query",
		[]string{"query_p50_ms@agg"}, nil},
	{"exec.shared_fold_frac", "frac", "higher", "counters: tuple folds into shared state per tuple delivered to an aggregate query",
		[]string{"query_p50_ms@agg"}, nil},
	{"sql.compile_us", "us", "lower", "serve responses: mean CompileMicros over the closed-loop phase (0 elsewhere)",
		[]string{"query_p50_ms@serve", "queries_per_s@serve"}, nil},
	{"sql.compile_probe_us", "us", "lower", "probe: CompileRealtimeScan over the serve statement pool",
		[]string{"query_p50_ms@serve", "queries_per_s@serve"}, nil},
	{"sql.compile_probe_allocs", "allocs", "lower", "probe: heap allocations per CompileRealtimeScan",
		[]string{"queries_per_s@serve"}, nil},
	{"server.queue_wait_us", "us", "lower", "serve responses: mean QueueWaitMicros over the closed-loop phase (0 elsewhere)",
		[]string{"query_p50_ms@serve", "queries_per_s@serve"}, nil},
	{"server.wire_us", "us", "lower", "serve: mean client round trip minus server-reported compile, queue and scan time, closed loop (0 elsewhere)",
		[]string{"query_p50_ms@serve", "queries_per_s@serve"}, nil},
	{"server.frame_roundtrip_ns", "ns", "lower", "probe: WriteFrame+ReadFrame of one request and one response through memory",
		[]string{"queries_per_s@serve"}, nil},
	{"server.frame_roundtrip_allocs", "allocs", "lower", "probe: heap allocations per frame round trip",
		[]string{"queries_per_s@serve"}, nil},
	{"runtime.allocs_per_page", "allocs/page", "lower", "Go runtime Mallocs over the timed phase per logical page",
		[]string{"cpu_us_per_page@scan-cpu", "cpu_us_per_page@scan-io", "cpu_us_per_page@agg", "cpu_us_per_page@serve"}, nil},
	{"trace.overhead_frac", "frac", "lower", "traced run against the untraced timed phase: same inputs' wall time (serve: closed-loop throughput) ratio minus 1",
		nil, nil},
	{"trace.dropped", "count", "lower", "events the traced run's ring dropped; must be 0 for the breakdown to be complete",
		nil, nil},
	{"failed_frac", "frac", "lower", "failed, refused, shed, stopped or wrong-result operations per attempted operation; 0 on a correct program",
		nil, nil},
}...)

// benchmarkJSON is the repository-level contract file.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []nameWhy      `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// workloadsJSON carries what BENCHMARK.json has no room for.
type workloadsJSON struct {
	Note      string          `json:"note"`
	Workloads []workloadShape `json:"workloads"`
	EndToEnd  []e2eMeaning    `json:"end_to_end"`
	LayerMap  []layerMetric   `json:"layer_map"`
}

type workloadShape struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Loop  string `json:"loop"`
	Shape any    `json:"shape"`
}

type e2eMeaning struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
	Means string  `json:"means"`
}

func manifests() (bench, shapes []byte, err error) {
	b := benchmarkJSON{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	s := workloadsJSON{
		Note: "Generated by perfbench -manifest from perfbench/manifest.go. Durations are in ns. " +
			"Layer metrics name the end-to-end metric@workload they should move (moves) and where they " +
			"should not (predicts_no_change). Traced-run components are seconds per query.",
		LayerMap: perLayer,
	}
	for _, w := range workloads {
		shape, err := w.shape()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		b.Workloads = append(b.Workloads, nameWhy{w.Name, w.Why})
		s.Workloads = append(s.Workloads, workloadShape{w.Name, w.Why, w.Loop, shape})
	}
	for _, m := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, e2eMeaning{m.Name, m.Unit, m.Bound, m.Means})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, perLayerJSON{m.Name, m.Unit, m.Better})
	}
	if bench, err = marshal(b); err != nil {
		return nil, nil, err
	}
	shapes, err = marshal(s)
	return bench, shapes, err
}

func marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeManifests writes BENCHMARK.json and perfbench/workloads.json under
// the repository root dir.
func writeManifests(dir string) error {
	bench, shapes, err := manifests()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), bench, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "perfbench", "workloads.json"), shapes, 0o644)
}
