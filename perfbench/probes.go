package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"scanshare"
	"scanshare/internal/buffer"
	"scanshare/internal/core"
	"scanshare/internal/disk"
	"scanshare/internal/exec"
	"scanshare/internal/heap"
	"scanshare/internal/record"
	"scanshare/internal/server"
)

// Probes replay a workload's call pattern straight into one layer's public
// functions and time them in ns and allocations per call. Each probe runs
// probeRepeats times and reports the median, so one descheduling does not
// move the figure.
const probeRepeats = 3

// coreProbeScans are the active-scan counts the SSM probe measures.
var coreProbeScans = []int{4, 16, 64, 256}

// timeCalls runs fn(calls) probeRepeats times and returns the median ns and
// allocations per call.
func timeCalls(calls int, fn func(n int) error) (nsPerCall, allocsPerCall float64, err error) {
	var ns, allocs []float64
	for r := 0; r < probeRepeats; r++ {
		a0 := mallocs()
		t0 := time.Now()
		if err := fn(calls); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		a1 := mallocs()
		ns = append(ns, float64(d.Nanoseconds())/float64(calls))
		allocs = append(allocs, float64(a1-a0)/float64(calls))
	}
	return medianFloat(ns), medianFloat(allocs), nil
}

// probeCore measures Manager.ReportProgress with n active scans at the
// scan-cpu cadence: n full scans of a scan-cpu-sized table start together,
// then report one prefetch extent each, round robin, on a clock that
// advances as the scans would.
func probeCore(n, tablePages, poolPages int) (us, allocs float64, err error) {
	cfg := core.DefaultConfig(poolPages)
	extent := cfg.PrefetchExtentPages
	rounds := max(2, 512/n)
	if (rounds+1)*extent >= tablePages {
		return 0, 0, fmt.Errorf("core probe: %d rounds overrun a %d-page table", rounds, tablePages)
	}
	var m *core.Manager
	var ids []core.ScanID
	var now time.Duration
	setup := func() error {
		var err error
		if m, err = core.NewManager(cfg); err != nil {
			return err
		}
		ids = ids[:0]
		now = 0
		for i := 0; i < n; i++ {
			id, _, err := m.StartScan(core.ScanOpts{Table: 1, TablePages: tablePages}, now)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		// One untimed round settles the groups.
		return reportRound(m, ids, extent, &now)
	}
	var nsAll, allocsAll []float64
	for r := 0; r < probeRepeats; r++ {
		if err := setup(); err != nil {
			return 0, 0, err
		}
		progress := extent
		a0 := mallocs()
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			progress += extent
			for _, id := range ids {
				now += time.Microsecond
				if _, err := m.ReportProgress(id, progress, now); err != nil {
					return 0, 0, err
				}
			}
		}
		d := time.Since(t0)
		a1 := mallocs()
		nsAll = append(nsAll, float64(d.Nanoseconds())/float64(rounds*n))
		allocsAll = append(allocsAll, float64(a1-a0)/float64(rounds*n))
	}
	return medianFloat(nsAll) / 1000, medianFloat(allocsAll), nil
}

func reportRound(m *core.Manager, ids []core.ScanID, progress int, now *time.Duration) error {
	for _, id := range ids {
		*now += time.Microsecond
		if _, err := m.ReportProgress(id, progress, *now); err != nil {
			return err
		}
	}
	return nil
}

// probeFixture is a small lineitem/orders engine whose pages are captured
// once, for the decode, fold and compile probes.
type probeFixture struct {
	eng    *scanshare.Engine
	schema *record.Schema
	pages  [][]byte
	tuples int
}

func newProbeFixture(seed int64) (*probeFixture, error) {
	eng, err := scanshare.New(scanshare.Config{BufferPoolPages: 256})
	if err != nil {
		return nil, err
	}
	li, err := loadLineitem(eng, 7000, seed)
	if err != nil {
		return nil, err
	}
	if _, err := loadOrders(eng, 2000, seed); err != nil {
		return nil, err
	}
	f := &probeFixture{eng: eng, schema: li.Schema()}
	_, err = eng.RunRealtime(context.Background(), scanshare.RealtimeOptions{}, []scanshare.RealtimeScan{{
		Table: li,
		OnPage: func(_ int, data []byte) {
			f.pages = append(f.pages, append([]byte(nil), data...))
		},
	}})
	if err != nil {
		return nil, err
	}
	f.tuples = int(li.NumTuples())
	return f, nil
}

// runProbes runs every layer probe and stores its figures in vals.
func runProbes(rc runConfig, spans *spanLog, vals map[string]float64) error {
	probe := func(layer, name string, fn func() error) error {
		done := spans.open(layer, "probe "+name)
		defer done()
		return fn()
	}
	tablePages, poolPages := scanCPUParams.TablePages, scanCPUParams.PoolPages
	for _, n := range coreProbeScans {
		err := probe("core", fmt.Sprintf("ReportProgress n=%d", n), func() error {
			us, allocs, err := probeCore(n, tablePages, poolPages)
			vals[fmt.Sprintf("core.report_progress_us.n%d", n)] = us
			vals[fmt.Sprintf("core.report_progress_allocs.n%d", n)] = allocs
			return err
		})
		if err != nil {
			return err
		}
	}

	// Pool acquire/release on the hit path, the path most scan-cpu pages
	// take, against a default-configured pool.
	err := probe("buffer", "Acquire/Release", func() error {
		pool, err := buffer.NewPoolOpts(buffer.PoolOptions{Capacity: poolPages})
		if err != nil {
			return err
		}
		ws := disk.PageID(poolPages / 2)
		for pid := disk.PageID(0); pid < ws; pid++ {
			if st, _ := pool.Acquire(pid); st != buffer.Miss {
				return fmt.Errorf("warm-up acquire(%d) = %v", pid, st)
			}
			if err := pool.Fill(pid, []byte{byte(pid)}); err != nil {
				return err
			}
			if err := pool.Release(pid, buffer.PriorityNormal); err != nil {
				return err
			}
		}
		ns, allocs, err := timeCalls(200_000, func(n int) error {
			for i := 0; i < n; i++ {
				pid := disk.PageID(i) % ws
				if st, _ := pool.Acquire(pid); st != buffer.Hit {
					return fmt.Errorf("acquire(%d) = %v, want a hit", pid, st)
				}
				if err := pool.Release(pid, buffer.PriorityNormal); err != nil {
					return err
				}
			}
			return nil
		})
		vals["buffer.acquire_release_ns"], vals["buffer.acquire_release_allocs"] = ns, allocs
		return err
	})
	if err != nil {
		return err
	}

	var fx *probeFixture
	err = probe("scanshare", "fixture", func() (err error) {
		fx, err = newProbeFixture(rc.seed)
		return err
	})
	if err != nil {
		return err
	}

	err = probe("record", "heap.View+Decode", func() error {
		ns, allocs, err := timeCalls(1, func(int) error {
			for _, pg := range fx.pages {
				v, err := heap.View(fx.schema, pg)
				if err != nil {
					return err
				}
				if err := v.ForEach(func(record.Tuple) error { return nil }); err != nil {
					return err
				}
			}
			return nil
		})
		vals["record.decode_ns_per_tuple"] = ns / float64(fx.tuples)
		vals["record.decode_allocs_per_tuple"] = allocs / float64(fx.tuples)
		return err
	})
	if err != nil {
		return err
	}

	err = probe("exec", "GroupByConsumer.OnPage", func() error {
		ns, allocs, err := timeCalls(1, func(int) error {
			c := &exec.GroupByConsumer{
				Schema:  fx.schema,
				GroupBy: []int{lFlag, lStatus},
				Aggs: []exec.AggSpec{
					{Kind: exec.AggSum, Ordinal: lQuantity},
					{Kind: exec.AggSum, Ordinal: lPrice},
					{Kind: exec.AggAvg, Ordinal: lDiscount},
					{Kind: exec.AggCount},
				},
			}
			for i, pg := range fx.pages {
				c.OnPage(i, pg)
			}
			_, err := c.Results()
			return err
		})
		vals["exec.fold_ns_per_tuple"] = ns / float64(fx.tuples)
		vals["exec.fold_allocs_per_tuple"] = allocs / float64(fx.tuples)
		return err
	})
	if err != nil {
		return err
	}

	stmts := statements(serveDefault.Statements, rc.seed)
	err = probe("sql", "CompileRealtimeScan", func() error {
		ns, allocs, err := timeCalls(20*len(stmts), func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := fx.eng.CompileRealtimeScan(stmts[i%len(stmts)]); err != nil {
					return err
				}
			}
			return nil
		})
		vals["sql.compile_probe_us"], vals["sql.compile_probe_allocs"] = ns/1000, allocs
		return err
	})
	if err != nil {
		return err
	}

	// One request and one response through WriteFrame/ReadFrame, as the
	// serve client and server exchange them.
	return probe("server", "WriteFrame/ReadFrame", func() error {
		req := server.Request{Tenant: serveTenant, Query: stmts[0]}
		resp := server.Response{OK: true, PagesRead: 12, WallMicros: 180, CompileMicros: 9, TraceID: 1}
		var buf bytes.Buffer
		ns, allocs, err := timeCalls(20_000, func(n int) error {
			for i := 0; i < n; i++ {
				var gotReq server.Request
				var gotResp server.Response
				if err := server.WriteFrame(&buf, req); err != nil {
					return err
				}
				if err := server.ReadFrame(&buf, &gotReq); err != nil {
					return err
				}
				if err := server.WriteFrame(&buf, resp); err != nil {
					return err
				}
				if err := server.ReadFrame(&buf, &gotResp); err != nil {
					return err
				}
			}
			return nil
		})
		vals["server.frame_roundtrip_ns"], vals["server.frame_roundtrip_allocs"] = ns, allocs
		return err
	})
}
