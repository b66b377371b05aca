package main

import (
	"math/rand"

	"scanshare"
	"scanshare/internal/workload"
)

// Table generators. Every value derives from the run seed, so one seed
// always yields byte-identical tables, and the engine sees only the
// generated tuples.

// scanRowsPerPage is how many padded rows fill one 8 KiB page of the scan
// table; the scan workloads never decode tuples, so rows are fat and few.
const (
	scanPad         = 1000
	scanRowsPerPage = 8
)

func scanSchema() *scanshare.Schema {
	return scanshare.MustSchema(
		scanshare.Field{Name: "k", Kind: scanshare.KindInt64},
		scanshare.Field{Name: "pad", Kind: scanshare.KindString},
	)
}

// loadScanTable loads a table of about pages pages of seeded random bytes.
func loadScanTable(eng *scanshare.Engine, pages int, seed int64) (*scanshare.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	pad := make([]byte, scanPad)
	return eng.LoadTable("scan", scanSchema(), func(add func(scanshare.Tuple) error) error {
		for i := 0; i < pages*scanRowsPerPage; i++ {
			rng.Read(pad)
			if err := add(scanshare.Tuple{scanshare.Int64(int64(i)), scanshare.String(string(pad))}); err != nil {
				return err
			}
		}
		return nil
	})
}

// Lineitem values are dyadic rationals (quarters and 64ths) well inside
// float64's exact range, so SUM and AVG come out bit-identical whatever
// order pages are folded in — the order a sharing scan reads in depends on
// where the SSM places it, and shared aggregation folds pages in claim
// order. That is what lets the agg oracle demand byte equality.
var (
	returnFlags  = []string{"A", "N", "R"}
	lineStatuses = []string{"F", "O"}
	shipModes    = []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	orderStati   = []string{"F", "O", "P"}
)

// Lineitem ordinals (workload.LineitemSchema).
const (
	lQuantity = 2
	lPrice    = 3
	lDiscount = 4
	lFlag     = 6
	lStatus   = 7
	lShipdate = 8
)

// lineitemGen yields the n seeded lineitem rows in clustered (l_shipdate)
// order. Calling it twice with the same arguments yields the same rows, so
// the oracle can re-derive the table without holding it in memory.
func lineitemGen(n int, seed int64, yield func(scanshare.Tuple) error) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		qty := float64(1 + rng.Intn(50))
		t := scanshare.Tuple{
			scanshare.Int64(int64(1 + rng.Intn(n/2+1))),
			scanshare.Int64(int64(1 + rng.Intn(2000))),
			scanshare.Float64(qty),
			scanshare.Float64(qty * (900 + float64(rng.Intn(800))/4)),
			scanshare.Float64(float64(rng.Intn(7)) / 64),
			scanshare.Float64(float64(rng.Intn(6)) / 64),
			scanshare.String(returnFlags[rng.Intn(len(returnFlags))]),
			scanshare.String(lineStatuses[rng.Intn(len(lineStatuses))]),
			scanshare.Date(int64(i) * workload.DataDays / int64(n)),
			scanshare.String(shipModes[rng.Intn(len(shipModes))]),
		}
		if err := yield(t); err != nil {
			return err
		}
	}
	return nil
}

func loadLineitem(eng *scanshare.Engine, rows int, seed int64) (*scanshare.Table, error) {
	return eng.LoadTable("lineitem", workload.LineitemSchema(), func(add func(scanshare.Tuple) error) error {
		return lineitemGen(rows, seed, add)
	})
}

func loadOrders(eng *scanshare.Engine, rows int, seed int64) (*scanshare.Table, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	return eng.LoadTable("orders", workload.OrdersSchema(), func(add func(scanshare.Tuple) error) error {
		for i := 0; i < rows; i++ {
			err := add(scanshare.Tuple{
				scanshare.Int64(int64(i + 1)),
				scanshare.Int64(int64(1 + rng.Intn(1500))),
				scanshare.Float64(1000 + float64(rng.Intn(396000))/4),
				scanshare.Date(int64(i) * workload.DataDays / int64(rows)),
				scanshare.String(priorities[rng.Intn(len(priorities))]),
				scanshare.String(orderStati[rng.Intn(len(orderStati))]),
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}
