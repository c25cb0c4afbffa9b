package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/tpch"
)

// q5-io: TPC-H Q5′ over the orders-date index at SF 0.2 on 4 nodes under
// the HDD cost model, with three selectivities in rotation and 2
// closed-loop clients. Modelled I/O concurrency dominates its wall time, so
// it exercises the executor's dispatch and batcher, the dfs/sim gate, and
// the B-tree multi-get; interpretation is a small share. Each selectivity
// runs over every region and over date windows starting at q5Offsets, so
// the mix averages over the data instead of resting on the customers of one
// region and the orders of one window, which vary with the seed at this
// scale.
const (
	q5SF      = 0.2
	q5Nodes   = 4
	q5Clients = 2
)

var (
	q5Sels    = []float64{0.001, 0.01, 0.1}
	q5Offsets = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} // window starts, as shares of the date domain
)

// q5Query is one query of the mix: a region, a date range, and the
// oracle's row count.
type q5Query struct {
	region string
	sel    float64
	lo, hi int
	want   int64
}

type q5Env struct {
	cluster *dfs.Cluster
	mix     []q5Query
}

// setupQ5 generates, loads, and indexes the dataset as redebench does.
func setupQ5(ctx context.Context, seed int64) (*q5Env, *tpch.Dataset, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	ds := tpch.Generate(tpch.Config{SF: q5SF, Seed: seed})
	cluster := dfs.NewCluster(dfs.Config{Nodes: q5Nodes, Cost: sim.HDDProfile()})
	if err := tpch.Load(ctx, cluster, ds, 0); err != nil {
		return nil, nil, t, err
	}
	t.load = time.Since(t0).Seconds()
	t1 := time.Now()
	if err := tpch.BuildStructures(ctx, cluster); err != nil {
		return nil, nil, t, err
	}
	t.build = time.Since(t1).Seconds()
	t.total = time.Since(t0).Seconds()
	return &q5Env{cluster: cluster}, ds, t, nil
}

// q5Options are redebench's SMPE options.
func q5Options() core.Options {
	return core.Options{
		Threads:           core.DefaultThreads,
		InlineReferencers: true,
		MaxBatch:          core.DefaultMaxBatch,
	}
}

// query runs the seq-th query of the rotation through catalog, checks its
// row count against the oracle, and hands its result to sink.
func (e *q5Env) query(ctx context.Context, rep *report, catalog lake.Catalog, spans *layerSpans, seq int64, sink *execAcc) (*core.Result, error) {
	qq := e.mix[seq%int64(len(e.mix))]
	job, err := tpch.Q5Job(ctx, catalog, qq.region, qq.lo, qq.hi)
	if err != nil {
		return nil, err
	}
	if spans != nil {
		traceStages(job, spans)
	}
	res, err := core.Execute(ctx, job, catalog, e.cluster, q5Options())
	if err != nil {
		return nil, err
	}
	if res.Count != qq.want {
		rep.wrong("q5 %s sel=%g days [%d,%d): %d rows, oracle %d", qq.region, qq.sel, qq.lo, qq.hi, res.Count, qq.want)
		return nil, fmt.Errorf("q5 sel=%g: wrong row count", qq.sel)
	}
	if sink != nil {
		sink.add(res.Trace)
	}
	return res, nil
}

// idlePass runs each query of the mix once, alone, and counts its storage
// accesses.
func (e *q5Env) idlePass(ctx context.Context, rep *report, catalog lake.Catalog, spans *layerSpans) ([]accessCount, error) {
	var out []accessCount
	for i := range e.mix {
		before := e.cluster.TotalMetrics()
		res, err := e.query(ctx, rep, catalog, spans, int64(i), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, accessesOf(fmt.Sprintf("%d", res.Count), e.cluster.TotalMetrics().Sub(before)))
	}
	return out, nil
}

func runQ5IO(ctx context.Context, cfg config, rep *report) error {
	rep.setEnv("cost_model", "sim.HDDProfile")
	rep.setEnv("clients", q5Clients)
	var (
		env   *q5Env
		ds    *tpch.Dataset
		times []setupTimes
	)
	for moreSetups(cfg, times) {
		env, ds = nil, nil
		runtime.GC() // the previous set-up's cluster is garbage now
		t, err := timedSetup(cfg, func() (t setupTimes, err error) {
			env, ds, t, err = setupQ5(ctx, cfg.seed)
			return t, err
		})
		if err != nil {
			return err
		}
		times = append(times, t)
	}
	reportSetups(rep, times)
	for _, sel := range q5Sels {
		lo, hi := tpch.DateRange(sel)
		if hi <= lo {
			hi = lo + 1
		}
		for _, off := range q5Offsets {
			d := int(off * tpch.DateDays)
			for _, r := range ds.Regions {
				env.mix = append(env.mix, q5Query{region: r.Name, sel: sel, lo: lo + d, hi: hi + d, want: ds.OracleQ5(r.Name, lo+d, hi+d)})
			}
		}
	}
	ds = nil

	pass, err := env.idlePass(ctx, rep, env.cluster, nil)
	if err != nil {
		return err
	}
	reportAccesses(rep, pass)
	if cfg.trace {
		spans := &layerSpans{}
		traced, err := env.idlePass(ctx, rep, &tracedCatalog{inner: env.cluster, spans: spans}, spans)
		if err != nil {
			return err
		}
		compareTraced(rep, pass, traced)
	}

	untraced := func(sink *execAcc) func(int64) error {
		return func(seq int64) error {
			_, err := env.query(ctx, rep, env.cluster, nil, seq, sink)
			return err
		}
	}
	warm, _ := closedLoop(ctx, q5Clients, cfg.warmup, untraced(nil))
	rep.count(warm)

	acc := &execAcc{}
	before, cpu := readCounters(env.cluster), cpuTime()
	l, _ := closedLoop(ctx, q5Clients, cfg.window, untraced(acc))
	cpu = cpuTime() - cpu
	after := readCounters(env.cluster)
	reportWindow(rep, cfg, l, l.attempted(), cpu)
	rep.set("live_heap_mb", liveHeapMB())
	if !cfg.trace {
		return nil
	}
	acc.report(rep)
	reportCounters(rep, before, after, l.attempted())

	spans := &layerSpans{}
	catalog := &tracedCatalog{inner: env.cluster, spans: spans}
	lt, _ := closedLoop(ctx, q5Clients, cfg.window, func(seq int64) error {
		_, err := env.query(ctx, rep, catalog, spans, seq, nil)
		return err
	})
	rep.count(lt)
	q := float64(lt.attempted())
	spans.mu.Lock()
	rep.set("dfs.calls_per_query", ratio(float64(spans.dfsCalls), q))
	rep.set("dfs.keys_per_call", ratio(float64(spans.dfsKeys), float64(spans.dfsCalls)))
	rep.set("dfs.busy_ms_per_query", ratio(ms(spans.dfsBusy), q))
	rep.set("dfs.call_p50_us", durQuantile(spans.dfsDur, 0.5))
	rep.set("tpch.interp_ms_per_query", ratio(ms(spans.stageSelf), q))
	spans.mu.Unlock()
	traceRatio(rep, cfg, l, lt)
	return nil
}
