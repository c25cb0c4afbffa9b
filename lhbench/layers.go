package main

import (
	"sync"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/metrics"
	"lakeharbor/internal/trace"
)

// execAcc accumulates the executor's own trace (Result.Trace) over the
// queries of one window.
type execAcc struct {
	mu          sync.Mutex
	queries     int64
	tasks       int64
	busy        time.Duration
	batches     int64
	batchedPtrs int64
	queueWait   trace.HistSnapshot
	// self is job wall time not covered by any task span; selfJobs counts
	// the jobs it was measured on (a job whose event ring overflowed has
	// an incomplete task timeline and is skipped).
	self     time.Duration
	selfJobs int64
	// lastBusy and ioTime feed the parse estimate: final-stage busy time
	// minus the job's storage round-trip time.
	lastBusy time.Duration
	ioTime   time.Duration
}

func (a *execAcc) add(snap *trace.Snapshot) {
	if snap == nil {
		return
	}
	var busy time.Duration
	for _, st := range snap.Stages {
		busy += st.Busy
	}
	var ivs []interval
	for _, ev := range snap.Events {
		if ev.Kind == trace.EvTask {
			ivs = append(ivs, interval{ev.TS, ev.TS + ev.Dur})
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	a.tasks += snap.TotalTasks()
	a.busy += busy
	a.batches += snap.TotalBatches()
	a.batchedPtrs += snap.TotalBatchedPtrs()
	a.queueWait = a.queueWait.Merge(snap.Lat.QueueWait)
	if snap.EventsDropped == 0 {
		if self := snap.Elapsed - time.Duration(unionLen(ivs)); self > 0 {
			a.self += self
		}
		a.selfJobs++
	}
	if n := len(snap.Stages); n > 0 {
		a.lastBusy += snap.Stages[n-1].Busy
	}
	a.ioTime += time.Duration(snap.Lat.IOLocal.Sum + snap.Lat.IORemote.Sum)
}

// report sets the core.* metrics.
func (a *execAcc) report(rep *report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := float64(a.queries)
	rep.set("core.tasks_per_query", ratio(float64(a.tasks), q))
	rep.set("core.busy_ms_per_query", ratio(ms(a.busy), q))
	rep.set("core.ptrs_per_batch", ratio(float64(a.batchedPtrs), float64(a.batches)))
	rep.set("core.queue_wait_p50_us", histQuantile(a.queueWait, 0.5)/1e3)
	rep.set("core.self_ms_per_query", ratio(ms(a.self), float64(a.selfJobs)))
}

// windowCounters is what a window reads from the storage layer's own
// counters and the Go runtime.
type windowCounters struct {
	storage metrics.Snapshot
	rt      runtimeSample
}

func readCounters(c *dfs.Cluster) windowCounters {
	return windowCounters{storage: c.TotalMetrics(), rt: readRuntime()}
}

// reportCounters sets the dfs counter and runtime metrics for a window of
// `queries` queries between two counter readings.
func reportCounters(rep *report, before, after windowCounters, queries int64) {
	d := after.storage.Sub(before.storage)
	q := float64(queries)
	rep.set("dfs.lookups_per_query", ratio(float64(d.Lookups), q))
	rep.set("dfs.remote_frac", ratio(float64(d.RemoteFetches), float64(d.Lookups)))
	rep.set("runtime.alloc_mb_per_query", ratio(float64(after.rt.allocBytes-before.rt.allocBytes)/(1<<20), q))
	rep.set("runtime.gc_cycles_per_query", ratio(float64(after.rt.gcCycles-before.rt.gcCycles), q))
}

// accessCount is one query's answer and storage accesses on an idle
// cluster: the Fig. 9 unit plus the counters batching decides.
type accessCount struct {
	answer       string
	accesses     int64
	lookups      int64
	batchKeys    int64
	batchLookups int64
}

func accessesOf(answer string, d metrics.Snapshot) accessCount {
	return accessCount{
		answer:       answer,
		accesses:     d.RecordAccesses(),
		lookups:      d.Lookups,
		batchKeys:    d.BatchKeys,
		batchLookups: d.BatchLookups,
	}
}

// reportAccesses sets record_accesses_per_query from an idle pass over the
// query mix.
func reportAccesses(rep *report, pass []accessCount) {
	var total int64
	for _, a := range pass {
		total += a.accesses
	}
	rep.set("record_accesses_per_query", ratio(float64(total), float64(len(pass))))
}

// compareTraced checks that the traced idle pass reproduced the untraced
// one exactly: the same answers, record accesses, lookups, and batch keys.
func compareTraced(rep *report, untraced, traced []accessCount) {
	if len(untraced) != len(traced) {
		rep.wrong("traced idle pass ran %d queries, untraced %d", len(traced), len(untraced))
		return
	}
	for i := range untraced {
		if untraced[i] != traced[i] {
			rep.wrong("query %d: traced run %+v differs from untraced run %+v", i, traced[i], untraced[i])
		}
	}
}

// reportWindow sets the latency and throughput metrics of a query window
// and its CPU time per operation; ops is the number of operations the
// process served in the window and cpu the CPU time it used meanwhile.
func reportWindow(rep *report, cfg config, l *opLog, ops int64, cpu time.Duration) {
	rep.count(l)
	sum := l.summarize(cfg.window, cfg.steal, 0.50, 0.95)
	rep.set("query_qps", sum.qps)
	rep.set("query_p50_ms", sum.lat[0])
	rep.set("query_p95_ms", sum.lat[1])
	rep.set("cpu_ms_per_op", ratio(ms(cpu), float64(ops)))
	rep.setEnv("query_ops", l.attempted())
	rep.setEnv("query_part_qps", sum.partQPS)
	rep.setEnv("query_part_steal", sum.partSteal)
	rep.setEnv("query_parts_kept", sum.kept)
	if l.failed > 0 {
		rep.note("%d of %d operations failed; first error: %v", l.failed, l.attempted(), l.firstErr)
	}
}

// maxSetups bounds the set-ups of one run.
const maxSetups = 25

// moreSetups reports whether another timed set-up should run: at least
// cfg.setups of them, then more while they have taken less than
// cfg.setupBudget in total.
func moreSetups(cfg config, done []setupTimes) bool {
	if len(done) < cfg.setups {
		return true
	}
	var total float64
	for _, t := range done {
		total += t.total
	}
	return total < cfg.setupBudget.Seconds() && len(done) < maxSetups
}

// setupTimes is one set-up's duration split by phase, and its steal.
type setupTimes struct {
	total, load, build float64
	steal              float64
}

// timedSetup runs one set-up and records the steal during it.
func timedSetup(cfg config, setup func() (setupTimes, error)) (setupTimes, error) {
	start := time.Now()
	t, err := setup()
	t.steal = cfg.steal.frac(start, time.Now())
	return t, err
}

// reportSetups sets setup_s, load_s, and indexer.build_s to the medians over
// the calm timed set-ups.
func reportSetups(rep *report, ts []setupTimes) {
	var steal []float64
	for _, t := range ts {
		steal = append(steal, t.steal)
	}
	var total, load, build []float64
	for _, i := range calm(steal) {
		total = append(total, ts[i].total)
		load = append(load, ts[i].load)
		build = append(build, ts[i].build)
	}
	rep.set("setup_s", median(total))
	rep.set("load_s", median(load))
	rep.set("indexer.build_s", median(build))
	rep.setEnv("setups", len(ts))
}

// traceRatio reports the traced window's read throughput over the untraced
// window's, each over its calm parts.
func traceRatio(rep *report, cfg config, untraced, traced *opLog) {
	r := ratio(traced.summarize(cfg.window, cfg.steal).qps, untraced.summarize(cfg.window, cfg.steal).qps)
	rep.set("trace.qps_ratio", r)
	rep.note("tracing overhead: traced/untraced query_qps = %.3f", r)
}
