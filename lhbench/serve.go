package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lakeharbor/internal/advisor"
	"lakeharbor/internal/dfs"
	"lakeharbor/internal/httpapi"
	"lakeharbor/internal/indexer"
	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/script"
	"lakeharbor/internal/store"
	"lakeharbor/internal/tpch"
)

// serve-mixed: an in-process httpapi.Server over a TPC-H SF 0.2 zero-cost
// cluster, served over loopback as lakeserve builds it, with maintained
// structures, one scripted index over orders, and lakeserve -data's
// write-ahead ingest policy (WAL Append then Sync per ingest). Load is an
// open loop of new-order ingests at a fixed rate beside one closed-loop
// reader of limited range jobs. It is the only workload with writes, so it
// exercises httpapi, store, indexer maintenance, script key extraction, and
// dfs appends; a read-side gain that costs maintenance shows up here.
const (
	serveSF     = 0.2
	serveNodes  = 4
	ingestRate  = 1000 // ingests per second, open loop
	rangeLimit  = 100  // rows a range read asks for
	rangeDays   = 300  // width of a range window; it holds > rangeLimit entries
	idleWindows = 24   // range windows of the idle access-count pass
	scriptName  = "orders_price"
	scriptIndex = "orders_price_sidx"
)

// priceScript indexes an orders row ("orderkey|custkey|date|price") by the
// integer part of its total price: the post-hoc access method the workload
// registers over HTTP.
const priceScript = `fn partkey(key, data) { return key }
fn keys(key, data) {
  let rest = data
  let i = 0
  while i < 3 {
    rest = substr(rest, find(rest, "|") + 1, len(rest))
    i = i + 1
  }
  emit(keyint(int(substr(rest, 0, find(rest, ".")))))
}`

// ordersIndexes are the structures maintained on every orders ingest.
var ordersIndexes = []string{tpch.IdxOrdersDate, tpch.IdxOrdersCust, scriptIndex}

type serveEnv struct {
	cluster *dfs.Cluster
	mgr     *indexer.Manager
	stop    context.CancelFunc
	srv     *http.Server
	base    string
	client  *http.Client

	walPath string
	walMu   sync.Mutex
	wal     *store.WAL

	// traced switches on the benchmark's spans around ServeHTTP and the
	// ingest hook.
	traced    atomic.Bool
	spanMu    sync.Mutex
	ingestDur []time.Duration
	rangeDur  []time.Duration
	walDur    []time.Duration

	dayBase []int64 // base orders per order date
	nextKey int64   // next new order key
	custs   int
	rng     *rand.Rand // ingest rows; used by the one ingest goroutine
	acked   []ingested // acknowledged ingests, in order
}

// ingested is one acknowledged ingest.
type ingested struct {
	key int64
	raw string
}

// logIngest is lakeserve -data's write-ahead hook: the record is framed,
// flushed, and fsynced before the server applies it to the cluster.
func (e *serveEnv) logIngest(file string, partKey lake.Key, rec lake.Record) error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	t0 := time.Now()
	if err := e.wal.Append(file, partKey, rec); err != nil {
		return err
	}
	err := e.wal.Sync()
	if e.traced.Load() {
		e.span(&e.walDur, time.Since(t0))
	}
	return err
}

func (e *serveEnv) span(to *[]time.Duration, d time.Duration) {
	e.spanMu.Lock()
	*to = append(*to, d)
	e.spanMu.Unlock()
}

// ServeHTTP times the API's handler when tracing is on.
func (e *serveEnv) handler(api *httpapi.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !e.traced.Load() {
			api.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		api.ServeHTTP(w, r)
		switch r.URL.Path {
		case "/v1/ingest":
			e.span(&e.ingestDur, time.Since(t0))
		case "/v1/jobs/range":
			e.span(&e.rangeDur, time.Since(t0))
		}
	})
}

func (e *serveEnv) close() {
	if e == nil {
		return
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.stop != nil {
		e.stop()
	}
	if e.wal != nil {
		e.wal.Close()
	}
}

// setupServe builds the cluster and structures, starts the server, and
// registers the scripted index over HTTP.
func setupServe(ctx context.Context, seed int64, dir string) (*serveEnv, setupTimes, error) {
	var t setupTimes
	e := &serveEnv{walPath: filepath.Join(dir, "wal.log")}
	if err := os.Remove(e.walPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, t, err
	}
	t0 := time.Now()
	ds := tpch.Generate(tpch.Config{SF: serveSF, Seed: seed})
	e.cluster = dfs.NewCluster(dfs.Config{Nodes: serveNodes})
	if err := tpch.Load(ctx, e.cluster, ds, 0); err != nil {
		return nil, t, err
	}
	t.load = time.Since(t0).Seconds()

	t1 := time.Now()
	mctx, stop := context.WithCancel(ctx)
	e.stop = stop
	mgr, err := tpch.BuildManaged(mctx, e.cluster, indexer.ManagerOptions{
		Maintain:    true,
		RebuildCost: advisor.New(e.cluster, advisor.Config{}).BuildCostNs,
	})
	if err != nil {
		e.close()
		return nil, t, err
	}
	e.mgr = mgr
	build := time.Since(t1)

	api := httpapi.New(e.cluster)
	api.AttachStructures(mgr)
	api.AttachScripts(script.NewRegistry(script.Limits{Steps: script.DefaultSteps, AllocBytes: script.DefaultAllocBytes}))
	if e.wal, err = store.OpenWAL(e.walPath); err != nil {
		e.close()
		return nil, t, err
	}
	api.SetIngestHook(e.logIngest)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, t, err
	}
	e.srv = &http.Server{Handler: e.handler(api), ReadHeaderTimeout: 10 * time.Second}
	go e.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at close
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}

	t2 := time.Now()
	if err := e.registerScript(ctx); err != nil {
		e.close()
		return nil, t, err
	}
	t.build = (build + time.Since(t2)).Seconds()
	t.total = time.Since(t0).Seconds()

	e.dayBase = make([]int64, tpch.DateDays)
	for _, o := range ds.Orders {
		e.dayBase[o.OrderDate]++
		if o.OrderKey >= e.nextKey {
			e.nextKey = o.OrderKey + 1
		}
	}
	e.custs = len(ds.Customers)
	e.rng = rand.New(rand.NewSource(seed))
	return e, t, nil
}

// registerScript POSTs the script and its structure binding, then polls
// GET /v1/structures until the build is ready.
func (e *serveEnv) registerScript(ctx context.Context) error {
	if _, err := e.post(ctx, "/v1/scripts", httpapi.ScriptPutRequest{Name: scriptName, Source: priceScript}, http.StatusCreated); err != nil {
		return err
	}
	binding := script.SpecBinding{
		Structure: scriptIndex, Base: tpch.FileOrders, Kind: "global",
		Script: scriptName, PartKeyFn: "partkey", KeysFn: "keys",
	}
	if _, err := e.post(ctx, "/v1/structures", binding, http.StatusAccepted); err != nil {
		return err
	}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		var st httpapi.StructuresJSON
		if err := e.get(ctx, "/v1/structures", &st); err != nil {
			return err
		}
		for _, s := range st.Structures {
			if s.Name != scriptIndex {
				continue
			}
			switch {
			case s.State == indexer.StateReady.String():
				return nil
			case s.LastErr != "":
				return fmt.Errorf("scripted index build: %s", s.LastErr)
			}
		}
	}
	return errors.New("scripted index did not become ready")
}

func (e *serveEnv) post(ctx context.Context, path string, body any, want int) ([]byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return e.do(req, want)
}

func (e *serveEnv) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		return err
	}
	b, err := e.do(req, http.StatusOK)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(b, out)
}

func (e *serveEnv) do(req *http.Request, want int) ([]byte, error) {
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// ingestRow returns the next new order: a fresh key, an existing customer,
// a price, and a date in the year after the loaded history. New orders
// thus grow every orders index without changing what a read window over
// the history holds, so the readers' work stays the same through the run.
func (e *serveEnv) ingestRow() (key int64, raw string) {
	key = e.nextKey
	e.nextKey++
	date := tpch.DateDays + e.rng.Intn(365)
	raw = fmt.Sprintf("%d|%d|%d|%d.%02d", key, 1+e.rng.Intn(e.custs), date, 1000+e.rng.Intn(400000), e.rng.Intn(100))
	return key, raw
}

// ingestLoop sends ingests on a fixed schedule for d: ingest i is due at
// start + i/rate and is timed from when it was due, so a stall also
// charges the ingests queued behind it. late records how far behind its
// schedule the generator sent each one.
func (e *serveEnv) ingestLoop(ctx context.Context, d time.Duration, log *opLog, late *[]time.Duration) {
	start := log.start
	interval := time.Second / ingestRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d || ctx.Err() != nil {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		*late = append(*late, time.Since(due))
		key, raw := e.ingestRow()
		_, err := e.post(ctx, "/v1/ingest", httpapi.IngestRequest{
			File: tpch.FileOrders, Key: []string{"int:" + strconv.FormatInt(key, 10)}, Text: raw,
		}, http.StatusCreated)
		log.add(due, time.Since(due), err)
		if err == nil {
			e.acked = append(e.acked, ingested{key, raw})
		}
	}
}

// rangeResult is one checked range read.
type rangeResult struct {
	count, returned int64
}

// rangeRead runs one limited range job over the orders-date index and
// checks it: every key in [lo, hi], `limit` rows whenever the window held
// that many, and a total equal to the loaded orders dated in the window.
func (e *serveEnv) rangeRead(ctx context.Context, rep *report, lo int) (rangeResult, error) {
	hi := lo + rangeDays - 1
	q := url.Values{
		"file":  {tpch.IdxOrdersDate},
		"lo":    {"int:" + strconv.Itoa(lo)},
		"hi":    {"int:" + strconv.Itoa(hi)},
		"limit": {strconv.Itoa(rangeLimit)},
	}
	var res httpapi.JobResultJSON
	if err := e.get(ctx, "/v1/jobs/range?"+q.Encode(), &res); err != nil {
		return rangeResult{}, err
	}
	var base int64
	for d := lo; d <= hi; d++ {
		base += e.dayBase[d]
	}
	bad := func(format string, args ...any) (rangeResult, error) {
		msg := fmt.Sprintf("range [%d,%d]: ", lo, hi) + fmt.Sprintf(format, args...)
		rep.wrong("%s", msg)
		return rangeResult{}, errors.New(msg)
	}
	if res.Count != base {
		return bad("count %d, the window holds %d", res.Count, base)
	}
	if want := min(res.Count, rangeLimit); int64(len(res.Records)) != want {
		return bad("%d rows returned, want %d", len(res.Records), want)
	}
	for _, r := range res.Records {
		raw, err := hex.DecodeString(r.KeyHex)
		if err != nil {
			return bad("key %q: %v", r.KeyHex, err)
		}
		day, err := keycodec.DecodeInt64(string(raw))
		if err != nil || day < int64(lo) || day > int64(hi) {
			return bad("key %q (day %d, %v) outside the window", r.KeyHex, day, err)
		}
	}
	return rangeResult{count: res.Count, returned: int64(len(res.Records))}, nil
}

// serveWindow is one window's reads and ingests.
type serveWindow struct {
	reads, ingests   *opLog
	elapsed          time.Duration
	late             []time.Duration
	returned         int64 // rows the reads returned
	ackedBefore, end int
}

// window runs the ingest open loop beside one closed-loop range reader for
// d. rng picks the read windows; only the one reader uses it.
func (e *serveEnv) window(ctx context.Context, rep *report, d time.Duration, rng *rand.Rand) *serveWindow {
	w := &serveWindow{ingests: newOpLog(), ackedBefore: len(e.acked)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.ingestLoop(ctx, d, w.ingests, &w.late)
	}()
	w.reads, w.elapsed = closedLoop(ctx, 1, d, func(int64) error {
		r, err := e.rangeRead(ctx, rep, rng.Intn(tpch.DateDays-rangeDays))
		w.returned += r.returned
		return err
	})
	<-done
	w.end = len(e.acked)
	return w
}

// idlePass runs fixed range windows alone and counts their accesses.
func (e *serveEnv) idlePass(ctx context.Context, rep *report, seed int64) ([]accessCount, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []accessCount
	for i := 0; i < idleWindows; i++ {
		before := e.cluster.TotalMetrics()
		r, err := e.rangeRead(ctx, rep, rng.Intn(tpch.DateDays-rangeDays))
		if err != nil {
			return nil, err
		}
		out = append(out, accessesOf(fmt.Sprintf("%d/%d", r.count, r.returned), e.cluster.TotalMetrics().Sub(before)))
	}
	return out, nil
}

// debugCounter reads one counter from GET /debug/metrics.
func (e *serveEnv) debugCounter(ctx context.Context, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/debug/metrics", nil)
	if err != nil {
		return 0, err
	}
	b, err := e.do(req, http.StatusOK)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/debug/metrics has no %s", name)
}

func (e *serveEnv) indexLens() (map[string]int, error) {
	out := map[string]int{}
	for _, name := range append([]string{tpch.FileOrders}, ordersIndexes...) {
		n, err := e.cluster.Len(name)
		if err != nil {
			return nil, err
		}
		out[name] = n
	}
	return out, nil
}

func walSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func runServeMixed(ctx context.Context, cfg config, rep *report) error {
	rep.setEnv("cost_model", "zero")
	rep.setEnv("wal_flush", "Append+Sync per ingest")
	rep.setEnv("ingest_rate_per_s", ingestRate)
	rep.setEnv("readers", 1)
	var (
		env   *serveEnv
		times []setupTimes
	)
	for moreSetups(cfg, times) {
		env.close()
		env = nil
		runtime.GC()
		t, err := timedSetup(cfg, func() (t setupTimes, err error) {
			env, t, err = setupServe(ctx, cfg.seed, cfg.dir)
			return t, err
		})
		if err != nil {
			return err
		}
		times = append(times, t)
	}
	defer env.close()
	reportSetups(rep, times)
	startLens, err := env.indexLens()
	if err != nil {
		return err
	}

	pass, err := env.idlePass(ctx, rep, cfg.seed)
	if err != nil {
		return err
	}
	reportAccesses(rep, pass)
	if cfg.trace {
		env.traced.Store(true)
		traced, err := env.idlePass(ctx, rep, cfg.seed)
		env.traced.Store(false)
		if err != nil {
			return err
		}
		compareTraced(rep, pass, traced)
	}

	rng := rand.New(rand.NewSource(cfg.seed + 1))
	warm := env.window(ctx, rep, cfg.warmup, rng)
	rep.count(warm.reads)
	rep.count(warm.ingests)

	scriptBefore := script.Counters()
	emitsBefore, err := env.debugCounter(ctx, "lakeharbor_emits_total")
	if err != nil {
		return err
	}
	walBefore, err := walSize(env.walPath)
	if err != nil {
		return err
	}
	lensBefore, err := env.indexLens()
	if err != nil {
		return err
	}
	before, cpu := readCounters(env.cluster), cpuTime()
	w := env.window(ctx, rep, cfg.window, rng)
	cpu = cpuTime() - cpu
	after := readCounters(env.cluster)
	reportWindow(rep, cfg, w.reads, w.reads.attempted()+w.ingests.attempted(), cpu)
	rep.count(w.ingests)
	ingest := w.ingests.summarize(cfg.window, cfg.steal, 0.50, 0.95)
	rep.set("ingest_p50_ms", ingest.lat[0])
	rep.set("ingest_p95_ms", ingest.lat[1])
	if w.ingests.failed > 0 {
		rep.note("%d of %d ingests failed; first error: %v", w.ingests.failed, w.ingests.attempted(), w.ingests.firstErr)
	}
	reportLateness(rep, w)
	rep.set("live_heap_mb", liveHeapMB())

	if cfg.trace {
		acked := float64(w.end - w.ackedBefore)
		emitsAfter, err := env.debugCounter(ctx, "lakeharbor_emits_total")
		if err != nil {
			return err
		}
		walAfter, err := walSize(env.walPath)
		if err != nil {
			return err
		}
		lensAfter, err := env.indexLens()
		if err != nil {
			return err
		}
		entries := 0
		for _, name := range ordersIndexes {
			entries += lensAfter[name] - lensBefore[name]
		}
		ops := w.reads.attempted() + w.ingests.attempted()
		reportCounters(rep, before, after, ops)
		rep.set("httpapi.range_read_per_returned", ratio(emitsAfter-emitsBefore, float64(w.returned)))
		rep.set("store.wal_bytes_per_ingest", ratio(float64(walAfter-walBefore), acked))
		rep.set("indexer.entries_per_ingest", ratio(float64(entries), acked))
		rep.set("script.invocations_per_ingest", ratio(float64(script.Counters().Invocations-scriptBefore.Invocations), acked))
		steps, err := scriptSteps(env.acked[w.ackedBefore:w.end])
		if err != nil {
			return err
		}
		rep.set("script.steps_per_ingest", steps)

		env.spanMu.Lock()
		env.ingestDur, env.rangeDur, env.walDur = nil, nil, nil // drop the idle pass's spans
		env.spanMu.Unlock()
		env.traced.Store(true)
		wt := env.window(ctx, rep, cfg.window, rng)
		env.traced.Store(false)
		rep.count(wt.reads)
		rep.count(wt.ingests)
		env.spanMu.Lock()
		rep.set("httpapi.ingest_handler_p50_us", durQuantile(env.ingestDur, 0.5))
		rep.set("httpapi.range_handler_p50_us", durQuantile(env.rangeDur, 0.5))
		rep.set("store.wal_append_sync_p50_us", durQuantile(env.walDur, 0.5))
		env.spanMu.Unlock()
		traceRatio(rep, cfg, w.reads, wt.reads)
	}
	return env.checkIngests(ctx, rep, startLens)
}

// reportLateness records how far behind schedule the ingest generator sent
// its ingests, and flags a window in which it fell behind: it sent fewer
// than 99% of the ingests due.
func reportLateness(rep *report, w *serveWindow) {
	var worst time.Duration
	for _, l := range w.late {
		worst = max(worst, l)
	}
	rep.setEnv("generator_late_ms", map[string]float64{
		"p50": durQuantile(w.late, 0.5) / 1e3,
		"p99": durQuantile(w.late, 0.99) / 1e3,
		"max": ms(worst),
	})
	if due := int(w.elapsed.Seconds() * ingestRate); len(w.late) < due*99/100 {
		rep.note("ingest generator fell behind: sent %d of %d ingests due", len(w.late), due)
	}
}

// checkIngests verifies every acknowledged ingest at the end of the run: it
// is in orders, each maintained index grew by exactly the acked count, and
// replaying the run's WAL into a fresh cluster applies exactly the acked
// ingests.
func (e *serveEnv) checkIngests(ctx context.Context, rep *report, start map[string]int) error {
	acked := len(e.acked)
	end, err := e.indexLens()
	if err != nil {
		return err
	}
	for name, n := range end {
		if n-start[name] != acked {
			rep.wrong("%s grew by %d, %d ingests were acknowledged", name, n-start[name], acked)
		}
	}
	if m := e.mgr.Maintainer(); m.Errors() != 0 {
		rep.wrong("index maintenance failed %d times: %v", m.Errors(), m.LastErr())
	}
	orders, err := e.cluster.File(tpch.FileOrders)
	if err != nil {
		return err
	}
	for _, in := range e.acked {
		key := tpch.OrderKey(in.key)
		p := orders.Partitioner().Partition(key, orders.NumPartitions())
		recs, err := orders.Lookup(ctx, p, key)
		if err != nil {
			return err
		}
		if len(recs) != 1 {
			rep.wrong("acknowledged order %d: %d records in orders", in.key, len(recs))
		} else if string(recs[0].Data) != in.raw {
			rep.wrong("acknowledged order %d: stored %q, ingested %q", in.key, recs[0].Data, in.raw)
		}
	}

	e.walMu.Lock()
	err = e.wal.Sync()
	e.walMu.Unlock()
	if err != nil {
		return err
	}
	fresh := dfs.NewCluster(dfs.Config{Nodes: serveNodes})
	if _, err := fresh.CreateFile(tpch.FileOrders, dfs.Btree, orders.NumPartitions(), orders.Partitioner()); err != nil {
		return err
	}
	applied, err := store.ReplayWAL(ctx, e.walPath, fresh)
	if err != nil {
		return err
	}
	n, err := fresh.Len(tpch.FileOrders)
	if err != nil {
		return err
	}
	if applied != acked || n != acked {
		rep.wrong("WAL replay applied %d records (%d in orders), %d ingests were acknowledged", applied, n, acked)
	}
	rep.setEnv("acked_ingests", acked)
	return nil
}

// scriptSteps measures, from outside the interpreter, the evaluation steps
// the scripted index spends per ingest: for a sample of ingested rows it
// finds the smallest step budget under which partkey and keys succeed.
func scriptSteps(rows []ingested) (float64, error) {
	prog, err := script.Compile(priceScript)
	if err != nil {
		return 0, err
	}
	if len(rows) > 50 {
		rows = rows[:50]
	}
	if len(rows) == 0 {
		return 0, nil
	}
	var total int64
	for _, in := range rows {
		rec := lake.Record{Key: tpch.OrderKey(in.key), Data: []byte(in.raw)}
		for _, fn := range []string{"partkey", "keys"} {
			n, err := minSteps(func(lim script.Limits) error {
				if fn == "partkey" {
					f, err := prog.PartKeyFunc(fn, lim)
					if err != nil {
						return err
					}
					_, err = f(rec)
					return err
				}
				f, err := prog.KeysFunc(fn, lim)
				if err != nil {
					return err
				}
				_, err = f(rec)
				return err
			})
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return float64(total) / float64(len(rows)), nil
}

// minSteps binary-searches the smallest step budget under which call
// succeeds.
func minSteps(call func(script.Limits) error) (int64, error) {
	isBudget := func(err error) bool {
		var se *script.Error
		return errors.As(err, &se) && se.Class == script.ClassStepBudget
	}
	lo, hi := int64(1), int64(script.DefaultSteps)
	if err := call(script.Limits{Steps: hi}); err != nil {
		return 0, err
	}
	for lo < hi {
		mid := (lo + hi) / 2
		err := call(script.Limits{Steps: mid})
		switch {
		case err == nil:
			hi = mid
		case isBudget(err):
			lo = mid + 1
		default:
			return 0, err
		}
	}
	return lo, nil
}
