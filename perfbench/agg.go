package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"scanshare"
)

// aggParams sizes the agg workload.
type aggParams struct {
	Rows int `json:"lineitem_rows"`
	// PoolPages must cover the whole table: agg measures decode and fold
	// with a buffer layer that does little.
	PoolPages int     `json:"pool_pages"`
	Q1        int     `json:"q1_queries"`
	Q6        int     `json:"q6_queries"`
	TailPct   float64 `json:"tail_percentile"`
}

var aggDefault = aggParams{Rows: 100_000, PoolPages: 1100, Q1: 8, Q6: 8, TailPct: 0.9}

// q6 is one Q6-like filter: a shipping year, a discount band and a
// quantity cap.
type q6 struct {
	year         int64
	discLo, qMax float64
}

func (q q6) match(t scanshare.Tuple) bool {
	d := t[lShipdate].I
	disc := t[lDiscount].F
	return d >= q.year*365 && d < (q.year+1)*365 &&
		disc >= q.discLo && disc <= q.discLo+2.0/64 && t[lQuantity].F < q.qMax
}

type aggWorkload struct {
	p    aggParams
	seed int64
	eng  *scanshare.Engine
	tbl  *scanshare.Table
	q6s  []q6
	ref  [][]byte // encoded reference rows per query
}

func (w *aggWorkload) setup() error {
	eng, err := scanshare.New(scanshare.Config{BufferPoolPages: w.p.PoolPages})
	if err != nil {
		return err
	}
	tbl, err := loadLineitem(eng, w.p.Rows, w.seed)
	if err != nil {
		return err
	}
	if tbl.NumPages() > w.p.PoolPages {
		return fmt.Errorf("lineitem has %d pages, pool only %d", tbl.NumPages(), w.p.PoolPages)
	}
	w.eng, w.tbl = eng, tbl
	return nil
}

func (w *aggWorkload) teardown() error {
	w.eng, w.tbl = nil, nil
	return nil
}

// queries returns the batch: Q1 identical GROUP BY queries first, then the
// seeded Q6-like filtered sums.
func (w *aggWorkload) queries() []scanshare.RealtimeAggQuery {
	var qs []scanshare.RealtimeAggQuery
	for i := 0; i < w.p.Q1; i++ {
		qs = append(qs, scanshare.RealtimeAggQuery{
			Scan:    scanshare.RealtimeScan{Table: w.tbl},
			GroupBy: []string{"l_returnflag", "l_linestatus"},
			Aggs: []scanshare.RealtimeAggSpec{
				{Kind: scanshare.Sum, Column: "l_quantity"},
				{Kind: scanshare.Sum, Column: "l_extendedprice"},
				{Kind: scanshare.Avg, Column: "l_discount"},
				{Kind: scanshare.Count},
			},
		})
	}
	for _, f := range w.q6s {
		qs = append(qs, scanshare.RealtimeAggQuery{
			Scan: scanshare.RealtimeScan{Table: w.tbl},
			Aggs: []scanshare.RealtimeAggSpec{
				{Kind: scanshare.Sum, Column: "l_extendedprice"},
				{Kind: scanshare.Count},
			},
			Filter: f.match,
		})
	}
	return qs
}

// reference re-generates the table's tuples and folds them directly, with
// none of the engine's scan, decode or aggregation code.
func (w *aggWorkload) reference() error {
	rng := rand.New(rand.NewSource(w.seed + 7))
	w.q6s = nil
	for i := 0; i < w.p.Q6; i++ {
		w.q6s = append(w.q6s, q6{year: int64(rng.Intn(7)), discLo: float64(1+rng.Intn(4)) / 64, qMax: float64(20 + rng.Intn(10))})
	}
	type q1acc struct {
		qty, price, disc float64
		n                int64
	}
	groups := map[[2]string]*q1acc{}
	sums := make([]float64, len(w.q6s))
	counts := make([]int64, len(w.q6s))
	err := lineitemGen(w.p.Rows, w.seed, func(t scanshare.Tuple) error {
		k := [2]string{t[lFlag].S, t[lStatus].S}
		g := groups[k]
		if g == nil {
			g = &q1acc{}
			groups[k] = g
		}
		g.qty += t[lQuantity].F
		g.price += t[lPrice].F
		g.disc += t[lDiscount].F
		g.n++
		for i, f := range w.q6s {
			if f.match(t) {
				sums[i] += t[lPrice].F
				counts[i]++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	keys := make([][2]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var q1rows []scanshare.Tuple
	for _, k := range keys {
		g := groups[k]
		q1rows = append(q1rows, scanshare.Tuple{
			scanshare.String(k[0]), scanshare.String(k[1]),
			scanshare.Float64(g.qty), scanshare.Float64(g.price),
			scanshare.Float64(g.disc / float64(g.n)), scanshare.Int64(g.n),
		})
	}
	w.ref = nil
	for i := 0; i < w.p.Q1; i++ {
		w.ref = append(w.ref, scanshare.EncodeAggRows(q1rows))
	}
	for i := range w.q6s {
		w.ref = append(w.ref, scanshare.EncodeAggRows([]scanshare.Tuple{{scanshare.Float64(sums[i]), scanshare.Int64(counts[i])}}))
	}
	return nil
}

func (w *aggWorkload) runBatch(ctx context.Context, opts scanshare.RealtimeOptions, spans *spanLog,
	log func(string, ...any)) (*scanshare.RealtimeAggReport, []time.Duration, int64, error) {
	qs := w.queries()
	fp := w.tbl.NumPages()
	comp := make([]completion, len(qs))
	for i := range qs {
		comp[i].want = fp
		qs[i].Scan.OnPage = comp[i].onPage
	}
	done := spans.open("scanshare", "RunRealtimeAggregates")
	t0 := time.Now()
	rep, err := w.eng.RunRealtimeAggregates(ctx, opts, qs, true)
	done()
	if err != nil {
		return nil, nil, 0, err
	}
	var failed int64
	lat := make([]time.Duration, 0, len(qs))
	for i, res := range rep.Results {
		why := ""
		switch {
		case res.Err != nil || res.Stopped:
			why = fmt.Sprintf("error %v, stopped %v", res.Err, res.Stopped)
		case res.PagesRead != fp || comp[i].got != fp:
			why = fmt.Sprintf("read %d pages, delivered %d, footprint %d", res.PagesRead, comp[i].got, fp)
		case res.Hits+res.Misses != int64(res.PagesRead+res.DegradedPages):
			why = "hits + misses != pages + degraded"
		case !bytes.Equal(scanshare.EncodeAggRows(rep.Rows[i]), w.ref[i]):
			why = fmt.Sprintf("rows %v differ from the reference", rep.Rows[i])
		}
		if why != "" {
			failed++
			log("query %d: %s", i, why)
			continue
		}
		lat = append(lat, comp[i].at.Sub(t0))
	}
	return rep, lat, failed, nil
}

func runAgg(rc runConfig, spans *spanLog) (*outcome, error) {
	p := aggDefault
	if rc.tiny {
		p.Rows, p.PoolPages, p.Q1, p.Q6 = 2000, 64, 2, 2
	}
	ctx := context.Background()
	log := logger(rc)
	w := &aggWorkload{p: p, seed: rc.seed}
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
		for i := range w.ref {
			w.ref[i][len(w.ref[i])-1] ^= 1
		}
	}
	var batches, sharedFolds int64
	err = runBatches(rc, out, func(_ int, opts scanshare.RealtimeOptions) (*scanshare.RealtimeReport, []time.Duration, int64, error) {
		rep, lat, failed, err := w.runBatch(ctx, opts, spans, log)
		if err != nil {
			return nil, nil, 0, err
		}
		batches++
		sharedFolds += rep.SharedAggFolds
		return rep.RealtimeReport, lat, failed, nil
	})
	if err != nil || !rc.trace {
		return out, err
	}
	delivered := float64(batches) * float64(p.Q1+p.Q6) * float64(w.tbl.NumTuples())
	out.layer["exec.shared_fold_frac"] = float64(sharedFolds) / delivered
	zeroServeLayers(out.layer)
	return out, nil
}
