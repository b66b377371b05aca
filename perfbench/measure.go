package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of ds by nearest rank.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// medianFloat returns the median of xs (the mean of the middle pair for an
// even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// resident-set high-water mark, so the peak read afterwards covers what
// follows and not the discarded set-ups before it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+). Where that is not
	// possible the peak still covers the whole process, which only makes
	// it larger.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MiB since the
// last resetPeakRSS: VmHWM from /proc/self/status, or ru_maxrss (KiB on
// Linux) where that file is missing.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mallocs returns the Go runtime's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// phase brackets a timed phase: its start, and the heap allocations made
// between begin and end.
type phase struct {
	start   time.Time
	allocs0 uint64
	allocs  uint64
}

// beginPhase starts a timed phase from a collected heap and a fresh
// resident-memory high-water mark.
func beginPhase() *phase {
	runtime.GC()
	resetPeakRSS()
	return &phase{allocs0: mallocs(), start: time.Now()}
}

func (p *phase) end() { p.allocs = mallocs() - p.allocs0 }

// benchSpan is one span the benchmark records around a call it makes into
// a layer of the engine: a run call, a compile, a frame send or receive, a
// probe. Times are offsets from the recorder's creation.
type benchSpan struct {
	ID    int64  `json:"id"`
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps the benchmark's own spans in memory; write dumps them when
// the run ends. Safe for concurrent use; a nil log records nothing.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []benchSpan
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// open starts a span and returns the function that ends it.
func (l *spanLog) open(layer, name string) (done func()) {
	if l == nil {
		return func() {}
	}
	start := time.Since(l.epoch)
	l.mu.Lock()
	i := len(l.spans)
	l.spans = append(l.spans, benchSpan{ID: int64(i + 1), Layer: layer, Name: name, Start: int64(start)})
	l.mu.Unlock()
	return func() {
		end := time.Since(l.epoch)
		l.mu.Lock()
		l.spans[i].End = int64(end)
		l.mu.Unlock()
	}
}

// record adds an already-measured span.
func (l *spanLog) record(layer, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, benchSpan{
		ID: int64(len(l.spans) + 1), Layer: layer, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
	l.mu.Unlock()
}

// write dumps the spans to path as gzip-compressed JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
