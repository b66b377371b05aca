package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"scanshare"
	"scanshare/internal/core"
)

// scanParams sizes a scan workload (scan-cpu, scan-io).
type scanParams struct {
	PoolPages  int `json:"pool_pages"`
	TablePages int `json:"table_pages"`
	Scans      int `json:"scans_per_batch"`
	// RangeSlots > 0 gives each scan a half-table range starting at one of
	// RangeSlots evenly spaced pages (drawn from the seed); 0 means full
	// scans.
	RangeSlots int `json:"range_slots,omitempty"`
	// ArrivalWindow spreads a batch's start times over this long, one
	// seeded arrival per equal slot; 0 submits every scan at once.
	ArrivalWindow time.Duration `json:"arrival_window_ns"`
	ReadDelay     time.Duration `json:"page_read_delay_ns"`
	PageDelay     time.Duration `json:"page_delay_ns"`
	TailPct       float64       `json:"tail_percentile"`
}

var (
	scanCPUParams = scanParams{PoolPages: 128, TablePages: 2560, Scans: 64, TailPct: 0.9}
	scanIOParams  = scanParams{PoolPages: 128, TablePages: 2560, Scans: 48, RangeSlots: 16,
		ArrivalWindow: time.Second, ReadDelay: 200 * time.Microsecond, PageDelay: 20 * time.Microsecond, TailPct: 0.9}
)

func tinyScan(p scanParams) scanParams {
	p.PoolPages, p.TablePages, p.Scans = 16, 96, 6
	if p.RangeSlots > 0 {
		p.RangeSlots = 4
	}
	if p.ArrivalWindow > 0 {
		p.ArrivalWindow = 20 * time.Millisecond
	}
	return p
}

// scanBatch is one RunRealtime call's inputs.
type scanBatch struct {
	scans []scanshare.RealtimeScan
	fp    []int // footprint pages per scan
}

// scanWorkload holds one set-up of a scan workload.
type scanWorkload struct {
	p    scanParams
	seed int64
	eng  *scanshare.Engine
	tbl  *scanshare.Table
	ref  map[[2]int]uint64 // solo-scan checksum per [start, end)
}

func (w *scanWorkload) setup() error {
	eng, err := scanshare.New(scanshare.Config{BufferPoolPages: w.p.PoolPages})
	if err != nil {
		return err
	}
	tbl, err := loadScanTable(eng, w.p.TablePages, w.seed)
	if err != nil {
		return err
	}
	w.eng, w.tbl = eng, tbl
	return nil
}

func (w *scanWorkload) teardown() error {
	w.eng, w.tbl = nil, nil
	return nil
}

// ranges lists every [start, end) a batch can draw.
func (w *scanWorkload) ranges() [][2]int {
	n := w.tbl.NumPages()
	if w.p.RangeSlots == 0 {
		return [][2]int{{0, n}}
	}
	var out [][2]int
	for s := 0; s < w.p.RangeSlots; s++ {
		start := s * (n / 2) / w.p.RangeSlots
		out = append(out, [2]int{start, start + n/2})
	}
	return out
}

// reference runs one solo, delay-free scan per range and keeps its
// checksum: what every shared scan of that range must reproduce.
func (w *scanWorkload) reference(ctx context.Context) error {
	w.ref = make(map[[2]int]uint64)
	for _, r := range w.ranges() {
		rep, err := w.eng.RunRealtime(ctx, scanshare.RealtimeOptions{},
			[]scanshare.RealtimeScan{{Table: w.tbl, StartPage: r[0], EndPage: r[1]}})
		if err != nil {
			return err
		}
		res := rep.Results[0]
		if res.Err != nil || res.PagesRead != r[1]-r[0] {
			return fmt.Errorf("reference scan %v: err %v, %d pages", r, res.Err, res.PagesRead)
		}
		w.ref[r] = res.Checksum
	}
	return nil
}

// batch draws batch i's scans from the seed.
func (w *scanWorkload) batch(i int) scanBatch {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
	rs := w.ranges()
	var b scanBatch
	slot := float64(w.p.ArrivalWindow) / float64(w.p.Scans)
	for j := 0; j < w.p.Scans; j++ {
		r := rs[rng.Intn(len(rs))]
		// Arrival j falls at a seeded point of the j-th of Scans equal
		// slots of the window: random arrivals at a steady rate, so every
		// seed offers the same load.
		var due time.Duration
		if w.p.ArrivalWindow > 0 {
			due = time.Duration((float64(j) + rng.Float64()) * slot)
		}
		sc := scanshare.RealtimeScan{Table: w.tbl, StartPage: r[0], EndPage: r[1],
			StartDelay: due, PageDelay: w.p.PageDelay}
		b.scans = append(b.scans, sc)
		b.fp = append(b.fp, r[1]-r[0])
	}
	return b
}

// counters accumulates engine counters over the timed batches.
type counters struct {
	queries, pages, hits, misses, busy, coalesced int64
	throttleEvents, evictions, physReads, joins   int64
	throttle                                      time.Duration
}

func (c *counters) add(rep *scanshare.RealtimeReport) {
	c.queries += int64(len(rep.Results))
	c.pages += rep.Counters.PagesRead
	c.hits += rep.Counters.Hits
	c.misses += rep.Counters.Misses
	c.busy += rep.Counters.BusyRetries
	c.coalesced += rep.Counters.ReadsCoalesced
	c.throttleEvents += rep.Counters.ThrottleEvents
	c.throttle += rep.Counters.ThrottleWait
	for _, p := range rep.Pools {
		c.evictions += p.Evictions
		c.physReads += p.Misses - p.Aborts
	}
	for _, r := range rep.Results {
		if r.Placement.JoinedScan != core.NoScan {
			c.joins++
		}
	}
}

// layer fills the counter-derived per-layer values.
func (c *counters) layer(vals map[string]float64) {
	pages := float64(max(c.pages, 1))
	vals["core.throttle_s_per_query"] = c.throttle.Seconds() / float64(max(c.queries, 1))
	vals["core.throttle_events_per_kpage"] = 1000 * float64(c.throttleEvents) / pages
	vals["core.placement_join_frac"] = float64(c.joins) / float64(max(c.queries, 1))
	vals["buffer.hit_ratio"] = float64(c.hits) / pages
	vals["buffer.evictions_per_page"] = float64(c.evictions) / pages
	vals["buffer.busy_retries_per_kpage"] = 1000 * float64(c.busy) / pages
	vals["disk.reads_per_page"] = float64(c.physReads) / pages
	vals["realtime.reads_coalesced_per_kpage"] = 1000 * float64(c.coalesced) / pages
}

// completion records when a scan delivered its last page: the end of the
// query as its consumer sees it. OnPage calls of one scan are sequential,
// and RunRealtime returns only after every scan ended, so no locking is
// needed.
type completion struct {
	want, got int
	at        time.Time
}

func (c *completion) onPage(int, []byte) {
	c.got++
	if c.got == c.want {
		c.at = time.Now()
	}
}

// checkScan applies the scan oracle and returns why a scan is wrong, or "".
func checkScan(res scanshare.RealtimeScanResult, fp int, ref uint64, c *completion) string {
	switch {
	case res.Err != nil:
		return fmt.Sprintf("error %v", res.Err)
	case res.Stopped:
		return "stopped"
	case res.PagesRead != fp:
		return fmt.Sprintf("read %d pages, footprint %d", res.PagesRead, fp)
	case res.Hits+res.Misses != int64(res.PagesRead+res.DegradedPages):
		return fmt.Sprintf("hits %d + misses %d != pages %d + degraded %d",
			res.Hits, res.Misses, res.PagesRead, res.DegradedPages)
	case res.Checksum != ref:
		return fmt.Sprintf("checksum %#x, reference %#x", res.Checksum, ref)
	case c.got != fp:
		return fmt.Sprintf("delivered %d pages, footprint %d", c.got, fp)
	}
	return ""
}

// runBatch runs one batch and checks every scan. It returns the batch's
// latencies (due time to last page) and failure count.
func (w *scanWorkload) runBatch(ctx context.Context, b scanBatch, opts scanshare.RealtimeOptions,
	spans *spanLog, log func(string, ...any)) (*scanshare.RealtimeReport, []time.Duration, int64, error) {
	comp := make([]completion, len(b.scans))
	scans := append([]scanshare.RealtimeScan(nil), b.scans...)
	for i := range scans {
		comp[i].want = b.fp[i]
		scans[i].OnPage = comp[i].onPage
	}
	opts.PageReadDelay = w.p.ReadDelay
	done := spans.open("scanshare", "RunRealtime")
	t0 := time.Now()
	rep, err := w.eng.RunRealtime(ctx, opts, scans)
	done()
	if err != nil {
		return nil, nil, 0, err
	}
	var failed int64
	lat := make([]time.Duration, 0, len(scans))
	for i, res := range rep.Results {
		r := [2]int{scans[i].StartPage, scans[i].EndPage}
		if why := checkScan(res, b.fp[i], w.ref[r], &comp[i]); why != "" {
			failed++
			log("scan %d of range %v: %s", i, r, why)
			continue
		}
		lat = append(lat, comp[i].at.Sub(t0.Add(scans[i].StartDelay)))
	}
	return rep, lat, failed, nil
}

func runScanWorkload(params scanParams) func(rc runConfig, spans *spanLog) (*outcome, error) {
	return func(rc runConfig, spans *spanLog) (*outcome, error) {
		p := params
		if rc.tiny {
			p = tinyScan(p)
		}
		ctx := context.Background()
		log := logger(rc)
		w := &scanWorkload{p: p, seed: rc.seed}
		out := &outcome{tailPct: p.TailPct, layer: map[string]float64{}}
		if err := measureSetups(spans, &out.setups, w.teardown, w.setup); err != nil {
			return nil, err
		}
		done := spans.open("scanshare", "reference")
		err := w.reference(ctx)
		done()
		if err != nil {
			return nil, err
		}
		if rc.corruptRef {
			for r := range w.ref {
				w.ref[r]++
			}
		}
		err = runBatches(rc, out, func(i int, opts scanshare.RealtimeOptions) (*scanshare.RealtimeReport, []time.Duration, int64, error) {
			return w.runBatch(ctx, w.batch(i), opts, spans, log)
		})
		if err != nil || !rc.trace {
			return out, err
		}
		zeroServeLayers(out.layer)
		out.layer["exec.shared_fold_frac"] = 0
		return out, nil
	}
}
