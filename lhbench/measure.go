package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lakeharbor/internal/trace"
)

// opLog collects the outcome of every operation one load generator issued
// inside a measurement window. Latencies of failed operations are kept as
// +Inf: a failed or refused operation misses every latency limit.
type opLog struct {
	mu       sync.Mutex
	start    time.Time
	ops      []opRec
	failed   int64
	firstErr error
}

// opRec is one operation: when it was issued (or due), relative to the
// window start, and its latency in ms.
type opRec struct {
	at  time.Duration
	lat float64
}

func newOpLog() *opLog { return &opLog{start: time.Now()} }

// add logs an operation issued (or due) at `at` that took d.
func (l *opLog) add(at time.Time, d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := opRec{at: at.Sub(l.start), lat: float64(d) / float64(time.Millisecond)}
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		rec.lat = math.Inf(1)
	}
	l.ops = append(l.ops, rec)
}

func (l *opLog) attempted() int64 { return int64(len(l.ops)) }

// Sub-window statistics. A window is cut into up to maxParts equal parts of
// at least minPartOps operations each, and only the operations of its calm
// parts (steal.go) are reported, so interference from outside the process
// that comes and goes leaves the result alone.
const (
	maxParts   = 10
	minPartOps = 150
)

// windowSummary is one window's reported statistics and, for the record,
// each part's throughput and steal.
type windowSummary struct {
	qps       float64   // successful operations per second
	lat       []float64 // the requested latency quantiles, ms
	partQPS   []float64
	partSteal []float64
	kept      []int // the parts reported
}

// summarize computes the window's statistics. A latency quantile that lands
// on a failed operation reads as the window's length: the operation missed
// every limit the window could measure.
func (l *opLog) summarize(window time.Duration, steal *stealSampler, qs ...float64) windowSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	parts := min(maxParts, max(1, len(l.ops)/minPartOps))
	partLen := window / time.Duration(parts)
	byPart := make([][]float64, parts)
	for _, op := range l.ops {
		i := min(parts-1, max(0, int(op.at/partLen)))
		byPart[i] = append(byPart[i], op.lat)
	}
	var sum windowSummary
	for i, lats := range byPart {
		from := l.start.Add(time.Duration(i) * partLen)
		sum.partSteal = append(sum.partSteal, steal.frac(from, from.Add(partLen)))
		ok := 0
		for _, v := range lats {
			if !math.IsInf(v, 1) {
				ok++
			}
		}
		sum.partQPS = append(sum.partQPS, float64(ok)/partLen.Seconds())
	}
	sum.kept = calm(sum.partSteal)
	var lats []float64
	for _, i := range sum.kept {
		sum.qps += sum.partQPS[i] / float64(len(sum.kept))
		lats = append(lats, byPart[i]...)
	}
	sort.Float64s(lats)
	for _, q := range qs {
		v := 0.0
		if len(lats) > 0 {
			v = lats[nearestRank(q, len(lats))]
		}
		if math.IsInf(v, 1) {
			v = ms(window)
		}
		sum.lat = append(sum.lat, v)
	}
	return sum
}

// nearestRank is the 0-based index of the q-quantile of n sorted values.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// closedLoop runs op back to back on `clients` goroutines until d has
// elapsed (or ctx ends), logging each operation's latency. A client sends
// its next operation only after the previous one returned. seq numbers
// operations across all clients, so a workload can rotate its query mix.
func closedLoop(ctx context.Context, clients int, d time.Duration, op func(seq int64) error) (*opLog, time.Duration) {
	log := newOpLog()
	var seq atomic.Int64
	start := log.start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				t0 := time.Now()
				err := op(seq.Add(1) - 1)
				log.add(t0, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	return log, time.Since(start)
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a point reading of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// histQuantile estimates the q-quantile of a trace histogram, interpolating
// linearly inside the bucket that holds it (the histogram's own Quantile
// returns the bucket's upper bound, which repeats exactly across runs).
func histQuantile(h trace.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum int64
	lo := int64(0)
	for _, b := range h.Buckets {
		if float64(cum+b.N) >= rank {
			frac := (rank - float64(cum)) / float64(b.N)
			return float64(lo) + frac*float64(b.Hi-lo)
		}
		cum += b.N
		lo = b.Hi + 1
	}
	return float64(h.Max)
}

// histSub returns the observations recorded in after but not in before, for
// two snapshots of one cumulative histogram.
func histSub(after, before trace.HistSnapshot) trace.HistSnapshot {
	out := trace.HistSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	prev := map[int64]int64{}
	for _, b := range before.Buckets {
		prev[b.Hi] = b.N
	}
	for _, b := range after.Buckets {
		if n := b.N - prev[b.Hi]; n > 0 {
			out.Buckets = append(out.Buckets, trace.HistBucket{Hi: b.Hi, N: n})
		}
	}
	return out
}

// interval is a closed span of time, in ns on any common clock.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// durQuantile is nearest-rank over raw durations, in µs.
func durQuantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[nearestRank(q, len(s))]) / float64(time.Microsecond)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
