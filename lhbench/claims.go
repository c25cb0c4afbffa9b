package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"log"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lakeharbor/internal/claims"
	"lakeharbor/internal/core"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/metrics"
	"lakeharbor/internal/nodenet"
	"lakeharbor/internal/trace"
)

// claims-cpu: the Fig. 9 ReDe arm — Q1–Q3 in rotation over 20k claims on 4
// nodes with the zero cost model, as claimsbench runs it, with 2
// closed-loop clients. There is no I/O gate, so it is bound by claims.Parse,
// allocation, and executor dispatch.
//
// claims-net: the same corpus and queries with the data plane behind 4
// in-process nodenet servers on loopback, dialled with lakeserve -nodes's
// default client options (derived hedging on). Paired with claims-cpu it
// isolates the cost of the RPC layer.
const (
	claimsCount   = 20000
	claimsNodes   = 4
	claimsClients = 2
)

type claimsEnv struct {
	cluster *dfs.Cluster
	want    [][2]int64 // per query: (claims, expense) from the oracle
	net     *netPlane  // nil for claims-cpu
}

// netPlane is claims-net's storage: one nodenet server per node, each over
// a single-node local store, and the pooled clients that reach them.
type netPlane struct {
	servers []*nodenet.Server
	obs     []*nodenet.ServerObs
	clients []*nodenet.Client
	stats   *nodenet.Stats
}

// startNetPlane starts n loopback servers and returns a cluster whose data
// plane runs over them, built the way lakeserve -nodes builds one.
func startNetPlane(n int) (*dfs.Cluster, *netPlane, error) {
	p := &netPlane{stats: nodenet.NewStats()}
	var transports []dfs.NodeTransport
	for i := 0; i < n; i++ {
		srv := nodenet.NewServer(dfs.Local(dfs.NewCluster(dfs.Config{Nodes: 1})), log.Printf)
		obs := nodenet.NewServerObs()
		srv.Observe(obs)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, nil, err
		}
		c := nodenet.Dial(addr.String(), nodenet.Options{}, p.stats)
		p.servers, p.obs, p.clients = append(p.servers, srv), append(p.obs, obs), append(p.clients, c)
		transports = append(transports, c)
	}
	cluster, err := dfs.NewClusterWithTransports(dfs.Config{}, transports)
	if err != nil {
		p.close()
		return nil, nil, err
	}
	return cluster, p, nil
}

func (p *netPlane) close() {
	if p == nil {
		return
	}
	for _, c := range p.clients {
		c.Close()
	}
	for _, s := range p.servers {
		s.Close()
	}
}

// netReading is a point reading of the RPC layer's counters.
type netReading struct {
	rpcs, errors, hedges, bytes int64
	lat                         trace.HistSnapshot
}

func (p *netPlane) read() netReading {
	r := netReading{rpcs: p.stats.RPCs(), hedges: p.stats.HedgeFires(), lat: p.stats.Latency()}
	// The client's failed-attempt counter is exported only as a metric
	// series.
	var buf bytes.Buffer
	p.stats.WriteMetrics(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "lakeharbor_net_rpc_errors_total "); ok {
			r.errors, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	for _, o := range p.obs {
		for _, op := range o.State(nil).Ops {
			r.bytes += op.BytesIn + op.BytesOut
		}
	}
	return r
}

// setupClaims generates the corpus and loads the lake arm: raw claims plus
// the disease index (claims.LoadLake, timed in its two phases).
func setupClaims(ctx context.Context, seed int64, networked bool) (*claimsEnv, *claims.Corpus, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	corpus := claims.Generate(claims.Config{Claims: claimsCount, Seed: seed})
	env := &claimsEnv{}
	if networked {
		c, p, err := startNetPlane(claimsNodes)
		if err != nil {
			return nil, nil, t, err
		}
		env.cluster, env.net = c, p
	} else {
		env.cluster = dfs.NewCluster(dfs.Config{Nodes: claimsNodes})
	}
	if err := claims.LoadLakeRaw(ctx, env.cluster, corpus, 0); err != nil {
		env.net.close()
		return nil, nil, t, err
	}
	t.load = time.Since(t0).Seconds()
	t1 := time.Now()
	if _, err := indexer.Build(ctx, env.cluster, claims.DiseaseIndexSpec()); err != nil {
		env.net.close()
		return nil, nil, t, err
	}
	t.build = time.Since(t1).Seconds()
	t.total = time.Since(t0).Seconds()
	return env, corpus, t, nil
}

// query runs the seq-th query of the Q1–Q3 rotation with claimsbench's
// options and checks it against the oracle.
func (e *claimsEnv) query(ctx context.Context, rep *report, seq int64, sink *execAcc) (*claims.Result, error) {
	k := int(seq % int64(len(claims.Queries)))
	q := claims.Queries[k]
	res, err := claims.RunReDe(ctx, e.cluster, q, core.Options{MaxBatch: core.DefaultMaxBatch})
	if err != nil {
		return nil, err
	}
	if res.Claims != e.want[k][0] || res.Expense != e.want[k][1] {
		rep.wrong("%s: (claims, expense) = (%d, %d), oracle (%d, %d)", q.Name, res.Claims, res.Expense, e.want[k][0], e.want[k][1])
		return nil, fmt.Errorf("%s: wrong answer", q.Name)
	}
	if sink != nil {
		sink.add(res.Trace)
	}
	return res, nil
}

// idlePass runs each query of the mix once, alone, and counts its storage
// accesses. A query that fails is counted as a failed operation and run
// again, up to idleAttempts times, so a transient RPC failure does not void
// the access count.
func (e *claimsEnv) idlePass(ctx context.Context, rep *report) ([]accessCount, error) {
	const idleAttempts = 3
	var out []accessCount
	for i := range claims.Queries {
		var (
			res *claims.Result
			d   metrics.Snapshot
			err error
		)
		for a := 0; a < idleAttempts; a++ {
			before := e.cluster.TotalMetrics()
			res, err = e.query(ctx, rep, int64(i), nil)
			rep.op(err)
			if err == nil {
				d = e.cluster.TotalMetrics().Sub(before)
				break
			}
		}
		if err != nil {
			return nil, err
		}
		if d.RecordAccesses() != res.RecordAccesses {
			rep.wrong("%s: RunReDe reported %d record accesses, the cluster counted %d", res.Query.Name, res.RecordAccesses, d.RecordAccesses())
		}
		out = append(out, accessesOf(fmt.Sprintf("%d/%d", res.Claims, res.Expense), d))
	}
	return out, nil
}

func runClaimsCPU(ctx context.Context, cfg config, rep *report) error {
	return runClaims(ctx, cfg, rep, false)
}

func runClaimsNet(ctx context.Context, cfg config, rep *report) error {
	return runClaims(ctx, cfg, rep, true)
}

func runClaims(ctx context.Context, cfg config, rep *report, networked bool) error {
	rep.setEnv("cost_model", "zero")
	rep.setEnv("clients", claimsClients)
	rep.setEnv("claims", claimsCount)
	if networked {
		rep.setEnv("data_plane", "4 nodenet servers on loopback, nodenet.Options{} (derived hedging)")
	}
	var (
		env    *claimsEnv
		corpus *claims.Corpus
		times  []setupTimes
	)
	for moreSetups(cfg, times) {
		if env != nil {
			env.net.close()
		}
		env, corpus = nil, nil
		runtime.GC()
		t, err := timedSetup(cfg, func() (t setupTimes, err error) {
			env, corpus, t, err = setupClaims(ctx, cfg.seed, networked)
			return t, err
		})
		if err != nil {
			return err
		}
		times = append(times, t)
	}
	defer env.net.close()
	reportSetups(rep, times)
	for _, q := range claims.Queries {
		n, exp := corpus.Oracle(q.Disease, q.MedicineClass)
		env.want = append(env.want, [2]int64{n, exp})
	}
	corpus = nil

	pass, err := env.idlePass(ctx, rep)
	if err != nil {
		return err
	}
	reportAccesses(rep, pass)

	op := func(sink *execAcc) func(int64) error {
		return func(seq int64) error {
			_, err := env.query(ctx, rep, seq, sink)
			return err
		}
	}
	warm, _ := closedLoop(ctx, claimsClients, cfg.warmup, op(nil))
	rep.count(warm)

	acc := &execAcc{}
	var netBefore netReading
	if networked {
		netBefore = env.net.read()
	}
	before, cpu := readCounters(env.cluster), cpuTime()
	l, _ := closedLoop(ctx, claimsClients, cfg.window, op(acc))
	cpu = cpuTime() - cpu
	after := readCounters(env.cluster)
	reportWindow(rep, cfg, l, l.attempted(), cpu)
	rep.set("live_heap_mb", liveHeapMB())
	if !cfg.trace {
		return nil
	}
	q := float64(l.attempted())
	acc.report(rep)
	reportCounters(rep, before, after, l.attempted())
	acc.mu.Lock()
	parse := acc.lastBusy - acc.ioTime
	acc.mu.Unlock()
	rep.set("claims.parse_ms_per_query", ratio(ms(parse), q))
	if networked {
		nb, na := netBefore, env.net.read()
		rep.set("nodenet.rpcs_per_query", ratio(float64(na.rpcs-nb.rpcs), q))
		rep.set("nodenet.bytes_per_query", ratio(float64(na.bytes-nb.bytes), q))
		rep.set("nodenet.rpc_p50_us", histQuantile(histSub(na.lat, nb.lat), 0.5)/1e3)
		rep.set("nodenet.hedges_per_query", ratio(float64(na.hedges-nb.hedges), q))
		rep.set("nodenet.rpc_errors", float64(na.errors-nb.errors))
	}

	// The claims path owns its job and catalog (claims.RunReDe), so the
	// benchmark has no spans to add inside it: the traced window re-runs
	// the mix and re-checks the idle pass, which keeps the overhead ratio
	// and the reproduction check defined for every workload.
	traced, err := env.idlePass(ctx, rep)
	if err != nil {
		return err
	}
	compareTraced(rep, pass, traced)
	lt, _ := closedLoop(ctx, claimsClients, cfg.window, op(nil))
	rep.count(lt)
	traceRatio(rep, cfg, l, lt)
	return nil
}
