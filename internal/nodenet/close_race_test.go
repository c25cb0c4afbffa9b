package nodenet

// Regression tests for the Close-during-hedge race window (the pool-drain
// leak check extended to hedged pairs) and for graceful server drain.

import (
	"context"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
)

// TestCloseRacesHedgedRequests: Close while hedged pairs are mid-flight.
// Both attempts of a pair hold pool slots; whichever loses must still return
// its connection (or close it) so the gauges land on zero — under -race this
// also shakes out unsynchronized slot accounting in the race window.
func TestCloseRacesHedgedRequests(t *testing.T) {
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f, err := cluster.File("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(ctx, 0, lake.Record{Key: "k", Data: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(slowTransport{dfs.Local(cluster), 2 * time.Millisecond}, discard)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for iter := 0; iter < 8; iter++ {
		stats := NewStats()
		c := Dial(addr.String(), Options{MaxConns: 4, HedgeAfter: 100 * time.Microsecond}, stats)
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Lookup(ctx, "f", 0, "k") //nolint:errcheck
			}()
		}
		// Close lands mid-flight: some pairs have a winner chosen and a
		// loser still on the wire, some are still racing for slots.
		time.Sleep(time.Duration(iter) * 500 * time.Microsecond)
		if err := c.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		wg.Wait()
		if open := stats.OpenConns(); open != 0 {
			t.Fatalf("iter %d: %d connections leaked after Close raced hedges", iter, open)
		}
		if inflight := stats.InFlight(); inflight != 0 {
			t.Fatalf("iter %d: pool occupancy %d after Close, want 0", iter, inflight)
		}
	}
}

// TestServerDrainFinishesInFlight: Drain must answer the request already
// executing, flip Draining (and the sidecar's /readyz) before it finishes,
// and leave the listener closed.
func TestServerDrainFinishesInFlight(t *testing.T) {
	cluster := dfs.NewCluster(dfs.Config{Nodes: 1})
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f, err := cluster.File("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(ctx, 0, lake.Record{Key: "k", Data: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(slowTransport{dfs.Local(cluster), 20 * time.Millisecond}, discard)
	obs := NewServerObs()
	srv.Observe(obs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dbg := httptest.NewServer(DebugHandler(srv, obs))
	defer dbg.Close()

	c := Dial(addr.String(), Options{}, nil)
	defer c.Close()

	type result struct {
		recs []lake.Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, err := c.Lookup(ctx, "f", 0, "k")
		done <- result{recs, err}
	}()
	// Wait until the request is actually executing server-side.
	deadline := time.Now().Add(time.Second)
	for obs.State(srv).Ops["lookup_batch"].Count == 0 && obs.conns.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		srv.Drain(time.Second) //nolint:errcheck
		close(drained)
	}()
	// Draining flips promptly, before the in-flight RPC completes.
	for !srv.Draining() {
		time.Sleep(100 * time.Microsecond)
	}
	if resp, err := http.Get(dbg.URL + "/readyz"); err != nil {
		t.Fatalf("readyz during drain: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz during drain: status %d, want 503", resp.StatusCode)
		}
	}
	if resp, err := http.Get(dbg.URL + "/healthz"); err != nil {
		t.Fatalf("healthz during drain: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz during drain: status %d, want 200 (liveness is not readiness)", resp.StatusCode)
		}
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight lookup failed during drain: %v", r.err)
	}
	if len(r.recs) != 1 || string(r.recs[0].Data) != "v" {
		t.Fatalf("in-flight lookup answered wrong: %+v", r.recs)
	}
	<-drained

	// New connections are refused after drain.
	c2 := Dial(addr.String(), Options{DialTimeout: 200 * time.Millisecond}, nil)
	defer c2.Close()
	if _, err := c2.Lookup(ctx, "f", 0, "k"); err == nil {
		t.Fatal("lookup succeeded against a drained server")
	}
}

// TestDebugMetricsEndpoint: the sidecar's /debug/metrics carries build info
// and per-op node series after traffic.
func TestDebugMetricsEndpoint(t *testing.T) {
	addr, _, srv := startNode(t)
	obs := NewServerObs()
	srv.Observe(obs)
	dbg := httptest.NewServer(DebugHandler(srv, obs))
	defer dbg.Close()

	c := Dial(addr, Options{}, nil)
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, "f", dfs.Heap, 2, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(ctx, "f", 0, []lake.Record{{Key: "k", Data: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "f", 0, "k"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(dbg.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		`lakeharbor_build_info{component="lakenode"`,
		"lakeharbor_node_open_conns",
		`lakeharbor_node_rpcs_total{op="lookup_batch"}`,
		`lakeharbor_node_rpc_seconds{op="append",quantile="0.99"}`,
		"lakeharbor_node_partitions 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/metrics missing %q", want)
		}
	}

	st := obs.State(srv)
	if st.Ops["lookup_batch"].Count == 0 || st.Partitions != 2 {
		t.Fatalf("node state incomplete: %+v", st)
	}
	spans := obs.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range spans {
		if s.Op == "" || s.File == "" {
			t.Fatalf("span missing op/file: %+v", s)
		}
	}
}

// replyCancelConn cancels a context the moment a whole response frame has
// been read from it — the instant a hedge loser's reply lands just as its
// job finishes — and records the deadline last set on it.
type replyCancelConn struct {
	net.Conn
	cancel  func()
	pending int // payload bytes still due in the current frame; -1 = header next

	mu       sync.Mutex
	deadline time.Time
}

func (c *replyCancelConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.pending < 0 && n == 4 {
		c.pending = int(binary.BigEndian.Uint32(p))
	} else if c.pending -= n; c.pending == 0 {
		c.cancel()
		c.pending = -1
	}
	return n, err
}

func (c *replyCancelConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// TestCancelAfterReplyKeepsPoolHealthy: a context cancelled after its
// call's reply was read must not reach the connection that call returns to
// the pool. The context watcher used to be able to yank the deadline onto
// an already-pooled connection, failing the next request on it with an i/o
// timeout; now such a connection is discarded instead.
func TestCancelAfterReplyKeepsPoolHealthy(t *testing.T) {
	addr, cluster, _ := startNode(t)
	ctx := context.Background()
	if _, err := cluster.CreateFile("f", dfs.Heap, 1, lake.HashPartitioner{}); err != nil {
		t.Fatal(err)
	}
	f, _ := cluster.File("f")
	if err := f.Append(ctx, 0, lake.Record{Key: "k", Data: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	c := Dial(addr, Options{MaxConns: 1, HedgeAfter: -1}, nil)
	defer c.Close()
	for round := 0; round < 20; round++ {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		conn := &replyCancelConn{Conn: raw, cancel: cancel, pending: -1}
		c.mu.Lock()
		c.idle = append(c.idle, conn) // the next request takes it
		c.mu.Unlock()
		if _, err := c.Lookup(cctx, "f", 0, "k"); err != nil {
			t.Fatalf("round %d: call whose reply arrived failed: %v", round, err)
		}
		time.Sleep(2 * time.Millisecond) // let a late watcher act
		c.mu.Lock()
		pooled := len(c.idle) == 1 && c.idle[0] == net.Conn(conn)
		c.mu.Unlock()
		conn.mu.Lock()
		poisoned := pooled && !conn.deadline.IsZero()
		conn.mu.Unlock()
		if poisoned {
			t.Fatalf("round %d: pooled connection carries a deadline after its context was cancelled", round)
		}
		if _, err := c.Lookup(ctx, "f", 0, "k"); err != nil {
			t.Fatalf("round %d: fresh call on the pool failed: %v", round, err)
		}
	}
}
