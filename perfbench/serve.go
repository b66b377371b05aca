package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scanshare"
	"scanshare/internal/core"
	"scanshare/internal/server"
	"scanshare/internal/sql"
	"scanshare/internal/trace"
	"scanshare/internal/workload"
)

// serveParams sizes the serve workload.
type serveParams struct {
	PoolPages  int `json:"pool_pages"`
	LineRows   int `json:"lineitem_rows"`
	OrderRows  int `json:"orders_rows"`
	Statements int `json:"statement_pool"`
	Conns      int `json:"connections"`
	// Window is how many requests the closed loop keeps in flight per
	// connection.
	Window int `json:"closed_loop_window"`
	// Rate is the open-loop phase's offered load in requests per second,
	// one seeded arrival per 1/Rate slot, alternating over the connections.
	Rate float64 `json:"open_loop_rate_per_s"`
	// TailLimit is the latency limit the open-loop tail is held against.
	TailLimit time.Duration `json:"tail_limit_ns"`
	TailPct   float64       `json:"tail_percentile"`
	// TracedRequests is the request count of each traced closed-loop slice.
	TracedRequests int `json:"traced_requests"`
}

var serveDefault = serveParams{PoolPages: 256, LineRows: 100_000, OrderRows: 40_000, Statements: 64,
	Conns: 2, Window: 4, Rate: 200, TailLimit: 2 * time.Millisecond, TailPct: 0.9, TracedRequests: 2000}

const serveTenant = "bench"

// closedSlices is how many equal slices the closed-loop phase is timed in;
// its rates are their medians.
const closedSlices = 8

type serveWorkload struct {
	p     serveParams
	seed  int64
	eng   *scanshare.Engine
	srv   *server.Server
	stmts []string
	fp    []int // footprint each statement compiles to
}

func (w *serveWorkload) newServer(tr *trace.Tracer) (*server.Server, error) {
	srv, err := server.New(server.Config{
		Engine: w.eng,
		// Two connections keep at most two requests in the server; a
		// cap of two with a queue to spare means nothing sheds.
		Tenants: []server.TenantConfig{{Name: serveTenant, MaxConcurrent: w.p.Conns, MaxQueueDepth: 4 * w.p.Conns}},
		Tracer:  tr,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

func (w *serveWorkload) setup() error {
	eng, err := scanshare.New(scanshare.Config{BufferPoolPages: w.p.PoolPages})
	if err != nil {
		return err
	}
	if _, err := loadLineitem(eng, w.p.LineRows, w.seed); err != nil {
		return err
	}
	if _, err := loadOrders(eng, w.p.OrderRows, w.seed); err != nil {
		return err
	}
	w.eng = eng
	w.srv, err = w.newServer(nil)
	return err
}

// teardown stops the server and drops the engine.
func (w *serveWorkload) teardown() error {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := w.srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("server shutdown: %w", err)
		}
	}
	w.srv, w.eng = nil, nil
	return nil
}

// statements draws the seeded statement pool: short ranges on the
// clustering date of lineitem (three in four) or orders. Table and range
// length cycle through fixed values and only the positions come from the
// seed, so every seed offers the same amount of page work.
func statements(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed + 11))
	out := make([]string, n)
	for i := range out {
		days := int64(60 + i%8*16)
		from := int64(rng.Intn(workload.DataDays - int(days)))
		lo, hi := sql.FormatDate(from), sql.FormatDate(from+days)
		if i%4 < 3 {
			out[i] = fmt.Sprintf("SELECT l_returnflag, count(*), sum(l_extendedprice) FROM lineitem "+
				"WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s' GROUP BY l_returnflag", lo, hi)
		} else {
			out[i] = fmt.Sprintf("SELECT count(*), avg(o_totalprice) FROM orders "+
				"WHERE o_orderdate BETWEEN DATE '%s' AND DATE '%s'", lo, hi)
		}
	}
	return out
}

// reference compiles every statement once to learn the footprint the
// server's scan must read.
func (w *serveWorkload) reference() error {
	w.stmts = statements(w.p.Statements, w.seed)
	w.fp = make([]int, len(w.stmts))
	for i, q := range w.stmts {
		sc, err := w.eng.CompileRealtimeScan(q)
		if err != nil {
			return fmt.Errorf("statement %q: %w", q, err)
		}
		end := sc.EndPage
		if end == 0 {
			end = sc.Table.NumPages()
		}
		w.fp[i] = end - sc.StartPage
	}
	return nil
}

// reqStats accumulates one phase's responses. Safe for concurrent use.
type reqStats struct {
	mu                       sync.Mutex
	lat                      []time.Duration
	attempted, failed, ok    int64
	pages                    int64
	compileUs, queueUs, wire float64
}

// add checks one response against the oracle and accounts it; rtt runs from
// the request's send to its response.
func (s *reqStats) add(w *serveWorkload, stmt int, resp server.Response, rtt time.Duration, log func(string, ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if !resp.OK || resp.PagesRead != w.fp[stmt] {
		s.failed++
		log("statement %d: ok %v error %q shed %v, %d pages, footprint %d",
			stmt, resp.OK, resp.Error, resp.Shed, resp.PagesRead, w.fp[stmt])
		return
	}
	s.ok++
	s.pages += int64(resp.PagesRead)
	s.lat = append(s.lat, rtt)
	s.compileUs += float64(resp.CompileMicros)
	s.queueUs += float64(resp.QueueWaitMicros)
	s.wire += float64(rtt.Microseconds() - resp.CompileMicros - resp.QueueWaitMicros - resp.WallMicros)
}

// merge adds o's counts into s. o must no longer be written to.
func (s *reqStats) merge(o *reqStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat = append(s.lat, o.lat...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.ok += o.ok
	s.pages += o.pages
	s.compileUs += o.compileUs
	s.queueUs += o.queueUs
	s.wire += o.wire
}

func dialAll(addr string, n int) ([]net.Conn, error) {
	var conns []net.Conn
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

// openLoop sends seeded arrivals at the offered rate for d,
// pipelining on each connection. The sender never waits for a response, so
// a server stall leaves later requests queued on the connection and their
// latency shows it. A request is timed from when it was sent, which is its
// due time unless the client's timer woke late: the Go timer wakes an
// otherwise idle process up to a millisecond late, and that lateness is the
// client's, not the server's.
func (w *serveWorkload) openLoop(addr string, d time.Duration, spans *spanLog, log func(string, ...any)) (*reqStats, error) {
	rng := rand.New(rand.NewSource(w.seed + 13))
	type req struct {
		due  time.Duration
		stmt int
	}
	// Request k falls at a seeded point of the k-th 1/Rate slot: random
	// arrivals at a steady rate, alternating over the connections.
	perConn := make([][]req, w.p.Conns)
	slot := float64(time.Second) / w.p.Rate
	for k := 0; k < int(d.Seconds()*w.p.Rate); k++ {
		due := time.Duration((float64(k) + rng.Float64()) * slot)
		perConn[k%w.p.Conns] = append(perConn[k%w.p.Conns], req{due: due, stmt: rng.Intn(len(w.stmts))})
	}
	conns, err := dialAll(addr, w.p.Conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	st := &reqStats{}
	errs := make([]error, 2*w.p.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range conns {
		reqs := perConn[ci]
		// sent carries each request's send time to the receiver; sized to
		// the connection's requests, so the sender never blocks on it.
		sent := make(chan time.Time, len(reqs))
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(sent)
			for _, r := range reqs {
				time.Sleep(time.Until(start.Add(r.due)))
				sent <- time.Now()
				done := spans.open("server", "WriteFrame")
				err := server.WriteFrame(c, server.Request{Tenant: serveTenant, Query: w.stmts[r.stmt]})
				done()
				if err != nil {
					errs[2*ci] = err
					c.Close() // unblocks the receiver
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for _, r := range reqs {
				var resp server.Response
				done := spans.open("server", "ReadFrame")
				err := server.ReadFrame(c, &resp)
				done()
				if err != nil {
					errs[2*ci+1] = err
					c.Close() // unblocks the sender
					return
				}
				st.add(w, r.stmt, resp, time.Since(<-sent), log)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
	}
	return st, nil
}

// closedLoop keeps Window requests in flight on each connection, for d or,
// when n > 0, until n requests in total were sent: a client that always
// has work queued at the server, so throughput is the server's capacity at
// Conns connections rather than the round trip's wake-up latency.
func (w *serveWorkload) closedLoop(addr string, d time.Duration, n int64, spans *spanLog, log func(string, ...any)) (*reqStats, error) {
	conns, err := dialAll(addr, w.p.Conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	type inflight struct {
		stmt int
		sent time.Time
	}
	st := &reqStats{}
	errs := make([]error, 2*w.p.Conns)
	var sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range conns {
		rng := rand.New(rand.NewSource(w.seed*31 + int64(ci)))
		// slots bounds the requests in flight; fifo hands each sent
		// request to the receiver in send order. Both hold at most Window.
		slots := make(chan struct{}, w.p.Window)
		fifo := make(chan inflight, w.p.Window)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(fifo)
			for {
				if n > 0 && sent.Add(1) > n || n == 0 && time.Since(start) >= d {
					return
				}
				slots <- struct{}{}
				r := inflight{stmt: rng.Intn(len(w.stmts)), sent: time.Now()}
				fifo <- r
				err := server.WriteFrame(c, server.Request{Tenant: serveTenant, Query: w.stmts[r.stmt]})
				spans.record("server", "WriteFrame", r.sent, time.Now())
				if err != nil {
					errs[2*ci] = err
					c.Close() // fails the receiver's read
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := range fifo {
				var resp server.Response
				err := server.ReadFrame(c, &resp)
				<-slots
				if err != nil {
					errs[2*ci+1] = err
					c.Close() // fails the sender's next write
					for range fifo {
						<-slots
					}
					return
				}
				now := time.Now()
				spans.record("server", "ReadFrame", r.sent, now)
				st.add(w, r.stmt, resp, now.Sub(r.sent), log)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
	}
	return st, nil
}

func runServe(rc runConfig, spans *spanLog) (*outcome, error) {
	p := serveDefault
	if rc.tiny {
		p.LineRows, p.OrderRows, p.PoolPages, p.Statements, p.Rate, p.TracedRequests = 4000, 2000, 16, 8, 200, 20
	}
	log := logger(rc)
	w := &serveWorkload{p: p, seed: rc.seed}
	defer w.teardown() // the run's result does not depend on a clean stop
	out := &outcome{tailPct: p.TailPct, layer: map[string]float64{}}
	if err := measureSetups(spans, &out.setups, w.teardown, w.setup); err != nil {
		return nil, err
	}
	done := spans.open("scanshare", "reference")
	err := w.reference()
	done()
	if err != nil {
		return nil, err
	}
	if rc.corruptRef {
		for i := range w.fp {
			w.fp[i]++
		}
	}
	var joins atomic.Int64
	if rc.trace {
		w.eng.TraceSharing(func(_ string, ev scanshare.SharingEvent) {
			if ev.Kind == scanshare.EventScanStarted && ev.Placement.JoinedScan != core.NoScan {
				joins.Add(1)
			}
		})
	}
	addr := w.srv.Addr()
	half := time.Duration(rc.seconds * float64(time.Second) / 2)

	// Warm-up: a short closed loop compiles, connects and fills the pool.
	warm, err := w.closedLoop(addr, half/10, 0, spans, log)
	if err != nil {
		return nil, err
	}
	out.attempted += warm.attempted
	out.failed += warm.failed

	col0, pool0, joins0 := w.srv.Collector().Snapshot(), w.eng.PoolStats()[""], joins.Load()
	ph := beginPhase()
	open, err := w.openLoop(addr, half, spans, log)
	if err != nil {
		return nil, err
	}
	closed := &reqStats{}
	for k := 0; k < closedSlices; k++ {
		s, err := timeSample(func() (int64, int64, error) {
			st, err := w.closedLoop(addr, half/closedSlices, 0, spans, log)
			if err != nil {
				return 0, 0, err
			}
			closed.merge(st)
			return st.pages, st.ok, nil
		})
		if err != nil {
			return nil, err
		}
		out.samples = append(out.samples, s)
	}
	ph.end()
	col1, pool1, joins1 := w.srv.Collector().Snapshot(), w.eng.PoolStats()[""], joins.Load()

	for _, s := range []*reqStats{open, closed} {
		out.attempted += s.attempted
		out.failed += s.failed
	}
	out.lat = open.lat
	out.pages, out.allocs = open.pages+closed.pages, ph.allocs
	if !rc.trace {
		return out, nil
	}

	c := counters{
		queries:        open.ok + closed.ok,
		pages:          col1.PagesRead - col0.PagesRead,
		hits:           col1.Hits - col0.Hits,
		misses:         col1.Misses - col0.Misses,
		busy:           col1.BusyRetries - col0.BusyRetries,
		coalesced:      col1.ReadsCoalesced - col0.ReadsCoalesced,
		throttleEvents: col1.ThrottleEvents - col0.ThrottleEvents,
		throttle:       col1.ThrottleWait - col0.ThrottleWait,
		evictions:      pool1.Evictions - pool0.Evictions,
		physReads:      (pool1.Misses - pool1.Aborts) - (pool0.Misses - pool0.Aborts),
		joins:          joins1 - joins0,
	}
	c.layer(out.layer)
	// Per-request server figures come from the open loop, where a request
	// rarely waits behind another on its connection.
	okf := float64(max(open.ok, 1))
	out.layer["sql.compile_us"] = open.compileUs / okf
	out.layer["server.queue_wait_us"] = open.queueUs / okf
	out.layer["server.wire_us"] = open.wire / okf
	out.layer["exec.shared_fold_frac"] = 0

	// Traced run: a second server on the same engine with the span tracer,
	// driven closed-loop for a fixed request count per slice.
	var tracedSrv *server.Server
	defer func() {
		if tracedSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = tracedSrv.Shutdown(ctx) // every client connection is closed by now
			cancel()
		}
	}()
	err = tracedRun(out.layer, out.samples, func(tr *trace.Tracer, _ int) (sample, error) {
		if tracedSrv == nil {
			var err error
			if tracedSrv, err = w.newServer(tr); err != nil {
				return sample{}, err
			}
		}
		return timeSample(func() (int64, int64, error) {
			traced, err := w.closedLoop(tracedSrv.Addr(), 0, int64(p.TracedRequests), spans, log)
			if err != nil {
				return 0, 0, err
			}
			out.attempted += traced.attempted
			out.failed += traced.failed
			return traced.pages, traced.ok, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
