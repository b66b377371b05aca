package main

import (
	"fmt"
	"runtime"
	"time"

	"scanshare"
	"scanshare/internal/trace"
)

// setupRepeats is how many times a run builds its workload's engine; setup_s
// is the median, and the last set-up is the one measured.
const setupRepeats = 9

func logger(rc runConfig) func(string, ...any) {
	return func(format string, args ...any) {
		if rc.log != nil {
			fmt.Fprintf(rc.log, rc.workload+": "+format+"\n", args...)
		}
	}
}

// measureSetups times setupRepeats calls of setup. Before each, teardown
// drops the previous set-up and the heap is collected, so one set-up's
// garbage does not bill the next.
func measureSetups(spans *spanLog, into *[]time.Duration, teardown, setup func() error) error {
	for i := 0; i < setupRepeats; i++ {
		if err := teardown(); err != nil {
			return err
		}
		runtime.GC()
		done := spans.open("scanshare", "setup")
		t0 := time.Now()
		err := setup()
		d := time.Since(t0)
		done()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		*into = append(*into, d)
	}
	return nil
}

// sample is one stretch of a timed phase, a batch or a slice of the serve
// closed loop. Rates and CPU per page are medians over samples, so a
// moment of interference from outside the process moves one sample, not
// the figure.
type sample struct {
	pages, queries int64
	wall, cpu      time.Duration
}

// timeSample runs fn, which returns the pages and queries it completed, and
// measures it as one sample.
func timeSample(fn func() (pages, queries int64, err error)) (sample, error) {
	cpu0, t0 := processCPU(), time.Now()
	pages, queries, err := fn()
	return sample{pages: pages, queries: queries, wall: time.Since(t0), cpu: processCPU() - cpu0}, err
}

// batchFunc runs batch i of a batch workload with the given options and
// returns its report, the latencies of its correct queries, and how many
// queries failed their oracle.
type batchFunc func(i int, opts scanshare.RealtimeOptions) (*scanshare.RealtimeReport, []time.Duration, int64, error)

// runBatches drives a batch workload: one untimed warm-up batch, which
// fills the pool and the runtime, then timed batches for rc.seconds (at
// least one), one sample each, and with rc.trace the counter figures and a
// traced run over the first batches' inputs.
func runBatches(rc runConfig, out *outcome, batch batchFunc) error {
	var c counters
	one := func(i int, opts scanshare.RealtimeOptions, timed bool) (sample, error) {
		return timeSample(func() (int64, int64, error) {
			rep, lat, failed, err := batch(i, opts)
			if err != nil {
				return 0, 0, err
			}
			out.attempted += int64(len(rep.Results))
			out.failed += failed
			if timed {
				c.add(rep)
				out.lat = append(out.lat, lat...)
			}
			return rep.Counters.PagesRead, int64(len(rep.Results)), nil
		})
	}
	if _, err := one(-1, scanshare.RealtimeOptions{}, false); err != nil {
		return err
	}
	limit := time.Duration(rc.seconds * float64(time.Second))
	ph := beginPhase()
	for len(out.samples) == 0 || time.Since(ph.start) < limit {
		s, err := one(len(out.samples), scanshare.RealtimeOptions{}, true)
		if err != nil {
			return err
		}
		out.samples = append(out.samples, s)
	}
	ph.end()
	out.pages, out.allocs = c.pages, ph.allocs
	if !rc.trace {
		return nil
	}
	c.layer(out.layer)
	return tracedRun(out.layer, out.samples, func(tr *trace.Tracer, i int) (sample, error) {
		return one(i, scanshare.RealtimeOptions{Tracer: tr}, false)
	})
}

// tracedRunRing is the tracer's ring size for the traced run. The drainer
// empties it every millisecond; at this depth the fastest workload (scan-cpu,
// an eviction and a read span per miss) leaves ample headroom, and
// trace.dropped reports it if not.
const tracedRunRing = 1 << 16

// tracedBatches is how many batches (serve: closed-loop slices) the traced
// run times; trace.overhead_frac compares their median with the untraced
// median.
const tracedBatches = 3

// tracedRun runs tracedBatches batches with a live tracer recording into
// memory, then assembles the span trees and stores the critical-path
// components, per query, under the layers that own them, together with the
// tracing overhead against the untraced samples.
func tracedRun(vals map[string]float64, untraced []sample, batch func(tr *trace.Tracer, i int) (sample, error)) error {
	tr := trace.NewTracerSize(nil, tracedRunRing)
	rec := new(trace.Recorder)
	tr.Attach(rec)
	tr.Start(time.Millisecond)
	var traced []sample
	var err error
	for i := 0; i < tracedBatches && err == nil; i++ {
		var s sample
		if s, err = batch(tr, i); err == nil {
			traced = append(traced, s)
		}
	}
	if cerr := tr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var queries int64
	for _, s := range traced {
		queries += s.queries
	}
	bd := trace.Assemble(rec.Events()).Aggregate()
	perQuery := func(d time.Duration) float64 { return d.Seconds() / float64(max(queries, 1)) }
	vals["buffer.pool_wait_s"] = perQuery(bd.PoolWait)
	vals["disk.read_wait_s"] = perQuery(bd.Read)
	vals["realtime.delivery_wait_s"] = perQuery(bd.Delivery)
	vals["realtime.process_s"] = perQuery(bd.Process)
	vals["exec.fold_s"] = perQuery(bd.Fold)
	vals["trace.dropped"] = float64(tr.Dropped())
	vals["trace.overhead_frac"] = medianWallPerQuery(traced)/medianWallPerQuery(untraced) - 1
	return nil
}

// zeroServeLayers reports the serving layers as idle on workloads that do
// not go through SQL or the wire.
func zeroServeLayers(vals map[string]float64) {
	for _, k := range []string{"sql.compile_us", "server.queue_wait_us", "server.wire_us"} {
		vals[k] = 0
	}
}

// medianWallPerQuery is the median over samples of wall time per query.
func medianWallPerQuery(samples []sample) float64 {
	perQuery := make([]float64, len(samples))
	for i, s := range samples {
		perQuery[i] = s.wall.Seconds() / float64(max(s.queries, 1))
	}
	return medianFloat(perQuery)
}
