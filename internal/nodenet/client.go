package nodenet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lakeharbor/internal/dfs"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
)

// Options tunes one per-node client.
type Options struct {
	// MaxConns bounds concurrent connections (and therefore concurrent
	// RPCs) to the node. Default 4.
	MaxConns int
	// DialTimeout bounds one TCP dial attempt. Default 1s.
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline (dial retries, write, and
	// response read all fit inside it); a sooner context deadline wins.
	// Default 10s.
	RequestTimeout time.Duration
	// HedgeAfter fixes the hedge delay: an idempotent request still
	// unanswered after this long launches a second attempt on another
	// connection, first response wins. Zero derives the delay from the
	// observed p95 RPC latency instead (see hedgeDelay). Negative disables
	// hedging.
	HedgeAfter time.Duration
	// HedgeMin floors the derived hedge delay so a string of microsecond
	// RPCs cannot make the client hedge everything. Default 1ms.
	HedgeMin time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = time.Millisecond
	}
	return o
}

// hedgeWarmup is how many RPCs must complete before a derived hedge delay
// is trusted; below it hedging stays off (unless HedgeAfter pins a delay).
const hedgeWarmup = 32

// hedgeRefresh is how often (in completed RPCs) the derived delay is
// recomputed from the latency histogram.
const hedgeRefresh = 64

// Client is the networked dfs.NodeTransport: it speaks the frame protocol
// to one lakenode server through a bounded connection pool, applies
// per-request deadlines, retries dials with backoff inside the deadline,
// and hedges slow idempotent requests.
type Client struct {
	addr  string
	opts  Options
	stats *Stats

	sem      chan struct{} // MaxConns slots; holding a slot = may hold a conn
	closedCh chan struct{} // closed by Close so waiters fail fast
	reqID    atomic.Uint64

	mu     sync.Mutex
	idle   []net.Conn
	closed bool

	lat        trace.Histogram // per-client latency feed for the hedge delay
	hedgeNs    atomic.Int64    // current derived hedge delay, 0 = not ready
	latSamples atomic.Int64
}

var _ dfs.NodeTransport = (*Client)(nil)

// Dial returns a client for the node at addr. No connection is opened until
// the first request; stats may be nil (or shared across clients).
func Dial(addr string, opts Options, stats *Stats) *Client {
	opts = opts.withDefaults()
	return &Client{
		addr:     addr,
		opts:     opts,
		stats:    stats,
		sem:      make(chan struct{}, opts.MaxConns),
		closedCh: make(chan struct{}),
	}
}

// Addr returns the server address the client targets.
func (c *Client) Addr() string { return c.addr }

// Close drains the pool and closes every idle connection. It blocks until
// in-flight requests (including losing hedge attempts) release their slots,
// so after Close returns the client holds zero connections.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.closedCh)
	// Acquiring every slot waits out in-flight attempts; new requests fail
	// fast on closedCh instead of queueing behind the drained pool.
	for i := 0; i < cap(c.sem); i++ {
		c.sem <- struct{}{}
	}
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
		c.stats.connClosed()
	}
	return nil
}

// --- dfs.NodeTransport ---

func (c *Client) CreateFile(ctx context.Context, name string, kind dfs.Kind, partitions int, p lake.Partitioner) error {
	req := &request{Op: opCreate, File: name, Kind: int(kind), Partitions: partitions, Part: p}
	_, err := c.call(ctx, req)
	return err
}

func (c *Client) DropFile(ctx context.Context, name string) error {
	_, err := c.call(ctx, &request{Op: opDrop, File: name})
	return err
}

// Lookup is a one-key LookupBatch on the wire.
func (c *Client) Lookup(ctx context.Context, file string, partition int, key lake.Key) ([]lake.Record, error) {
	out, err := c.LookupBatch(ctx, file, partition, []lake.Key{key})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func (c *Client) LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	req := &request{Op: opLookupBatch, File: file, Partition: partition, Keys: keys}
	resp, err := c.call(ctx, req)
	if err != nil {
		return nil, err
	}
	if len(resp.Groups) != len(keys) {
		return nil, lake.AsPermanent(fmt.Errorf("nodenet: batch answer has %d groups for %d keys", len(resp.Groups), len(keys)))
	}
	return resp.Groups, nil
}

func (c *Client) LookupRange(ctx context.Context, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	req := &request{Op: opLookupRange, File: file, Partition: partition, Lo: lo, Hi: hi}
	resp, err := c.call(ctx, req)
	if err != nil {
		return nil, err
	}
	return resp.Recs, nil
}

func (c *Client) Scan(ctx context.Context, file string, partition int, fn func(lake.Record) error) error {
	resp, err := c.call(ctx, &request{Op: opScan, File: file, Partition: partition})
	if err != nil {
		return err
	}
	for _, r := range resp.Recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (c *Client) Append(ctx context.Context, file string, partition int, recs []lake.Record) error {
	req := &request{Op: opAppend, File: file, Partition: partition, Recs: recs}
	_, err := c.call(ctx, req)
	return err
}

func (c *Client) Stat(ctx context.Context, file string, partition int) (int, int64, error) {
	resp, err := c.call(ctx, &request{Op: opStat, File: file, Partition: partition})
	if err != nil {
		return 0, 0, err
	}
	return resp.Records, resp.Bytes, nil
}

// --- request execution ---

// idempotent ops may be hedged: running them twice server-side changes
// nothing. Appends and catalog mutations never hedge.
func idempotent(op byte) bool {
	switch op {
	case opLookupBatch, opLookupRange, opScan, opStat:
		return true
	}
	return false
}

// call runs one logical request, hedging idempotent ops that outlive the
// hedge delay: a second attempt starts on another pooled connection and the
// first response wins; the loser's response is counted as a suppressed
// duplicate and its connection returns to the pool untainted.
func (c *Client) call(ctx context.Context, req *request) (_ *response, err error) {
	// Forward the executor's RPC trace identity on the wire (flagCtx frame)
	// so the node attributes its spans to the originating job, and land a
	// successful call on the job's timeline as an EvRPC interval, so the
	// critical-path extractor can name wire-dominated segments as (stage,
	// node, rpc). Untraced callers leave Ctx zero and the frame stays
	// old-format byte-identical.
	if rc := trace.RPCFrom(ctx); rc.Job != "" {
		req.Ctx = TraceContext{Job: rc.Job, Tenant: rc.Tenant, Stage: max(rc.Stage, 0), Attempt: max(rc.Attempt, 0)}
		if io := trace.IOFrom(ctx); io != nil {
			t0 := time.Now()
			defer func() {
				if err == nil {
					io.ObserveRPC(rc.Stage, t0, time.Since(t0))
				}
			}()
		}
	}
	delay := c.hedgeDelay()
	if !idempotent(req.Op) || delay <= 0 {
		resp, err, _ := c.attempt(ctx, req)
		return resp, err
	}

	type outcome struct {
		resp *response
		err  error
	}
	results := make(chan outcome, 2)
	var won atomic.Bool
	launch := func(hedged bool) {
		// Each attempt re-encodes with a fresh request id so a stale
		// response on a desynced conn can never satisfy the other attempt.
		resp, err, served := c.attempt(ctx, req)
		if served && err == nil {
			if !won.CompareAndSwap(false, true) {
				c.stats.hedgeDup() // the losing attempt's answer, suppressed
			} else if hedged {
				c.stats.hedgeWon()
			}
		}
		results <- outcome{resp, err}
	}

	go launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched, failures := 1, 0
	var firstErr error
	for {
		select {
		case <-timer.C:
			if launched == 1 {
				c.stats.hedgeFired()
				go launch(true)
				launched = 2
			}
		case out := <-results:
			if out.err == nil {
				return out.resp, nil
			}
			failures++
			if firstErr == nil {
				firstErr = out.err
			}
			// Every launched attempt failed (a primary failing before the
			// hedge timer is not hedged: its error was not slowness).
			if failures == launched {
				return nil, firstErr
			}
		}
	}
}

// hedgeDelay returns the current hedge delay: the fixed override if set,
// otherwise the p95 of observed RPC latency (recomputed every hedgeRefresh
// completions, floored at HedgeMin), or 0 while hedging is not ready.
func (c *Client) hedgeDelay() time.Duration {
	if c.opts.HedgeAfter != 0 {
		if c.opts.HedgeAfter < 0 {
			return 0
		}
		return c.opts.HedgeAfter
	}
	return time.Duration(c.hedgeNs.Load())
}

// observeLatency feeds the per-client histogram and refreshes the derived
// hedge delay.
func (c *Client) observeLatency(d time.Duration) {
	c.lat.RecordDur(d)
	n := c.latSamples.Add(1)
	if n < hedgeWarmup || n%hedgeRefresh != 0 {
		return
	}
	p95 := c.lat.Snapshot().Quantile(0.95)
	if floor := int64(c.opts.HedgeMin); p95 < floor {
		p95 = floor
	}
	c.hedgeNs.Store(p95)
}

// attempt performs one RPC on one pooled connection. served reports whether
// a response frame actually came back (used for hedge win/dup accounting —
// an attempt that lost the dial race did no server work).
func (c *Client) attempt(ctx context.Context, req *request) (_ *response, _ error, served bool) {
	// A slot bounds both connections and concurrent RPCs.
	select {
	case c.sem <- struct{}{}:
	case <-c.closedCh:
		return nil, errors.New("nodenet: client closed"), false
	case <-ctx.Done():
		return nil, ctx.Err(), false
	}
	c.stats.slot(1)
	defer func() {
		c.stats.slot(-1)
		<-c.sem
	}()

	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errors.New("nodenet: client closed"), false
	}

	deadline := time.Now().Add(c.opts.RequestTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn, err := c.conn(ctx, deadline)
	if err != nil {
		return nil, err, false // dial failures are transient
	}
	conn.SetDeadline(deadline) //nolint:errcheck
	// A context cancelled mid-I/O yanks the deadline to now so the blocked
	// read returns. If the watcher ran at all — even after the response
	// arrived, as it does for a hedge loser whose job already finished —
	// the conn's deadline may be poisoned, so it is discarded rather than
	// pooled.
	stopWatch := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now()) //nolint:errcheck
	})
	healthy := false
	defer func() {
		if stopWatch() && healthy {
			c.putIdle(conn)
		} else {
			conn.Close()
			c.stats.connClosed()
		}
	}()

	// Encode from a shallow copy: hedged attempts share *req concurrently,
	// so the per-attempt id must not be written through the shared pointer.
	id := c.reqID.Add(1)
	attempt := *req
	attempt.ReqID = id
	payload := attempt.encode()
	t0 := time.Now()
	if err := writeFrame(conn, payload); err != nil {
		c.stats.rpcDone(0, true)
		return nil, transportErr(ctx, "write", err), false
	}
	raw, err := readFrame(conn)
	if err != nil {
		c.stats.rpcDone(0, true)
		if errors.Is(err, errFrameTooBig) {
			// The peer is not speaking our protocol; retrying cannot help.
			return nil, lake.AsPermanent(fmt.Errorf("nodenet: %s: %w", c.addr, err)), false
		}
		return nil, transportErr(ctx, "read", err), false
	}
	resp, err := decodeResponse(raw, req.Op)
	if err != nil {
		c.stats.rpcDone(0, true)
		return nil, lake.AsPermanent(fmt.Errorf("nodenet: %s: malformed response: %w", c.addr, err)), true
	}
	if resp.ReqID != id && !(resp.Status == statusPermanent && resp.ReqID == 0) {
		// id 0 is the server's "could not decode your request" answer; any
		// other mismatch means the stream desynchronised.
		c.stats.rpcDone(0, true)
		return nil, lake.AsPermanent(fmt.Errorf("nodenet: %s: response id %d for request %d", c.addr, resp.ReqID, id)), true
	}
	elapsed := time.Since(t0)
	statusErr := statusToError(resp)
	c.stats.rpcDone(int64(elapsed), statusErr != nil)
	if statusErr == nil {
		c.observeLatency(elapsed)
	}
	healthy = true // protocol stayed in sync; conn is reusable either way
	return resp, statusErr, true
}

// transportErr wraps a connection-level failure, preferring the context's
// own error when the deadline watcher caused it. The result is transient.
func transportErr(ctx context.Context, stage string, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("nodenet: %s: %w", stage, err)
}

// statusToError converts an error status into the Go error class the retry
// machinery expects on this side of the wire.
func statusToError(resp *response) error {
	switch resp.Status {
	case statusOK:
		return nil
	case statusNoFile:
		return fmt.Errorf("%w (remote: %s)", lake.ErrNoSuchFile, resp.Msg)
	case statusNoPartition:
		return fmt.Errorf("%w (remote: %s)", lake.ErrNoSuchPartition, resp.Msg)
	case statusPermanent:
		return lake.AsPermanent(fmt.Errorf("nodenet: remote: %s", resp.Msg))
	default: // statusTransient
		return fmt.Errorf("nodenet: remote: %s", resp.Msg)
	}
}

// conn returns an idle pooled connection or dials a new one, retrying
// refused/unreachable dials with exponential backoff until the deadline.
// The caller already holds a pool slot.
func (c *Client) conn(ctx context.Context, deadline time.Time) (net.Conn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

	backoff := 2 * time.Millisecond
	for {
		d := c.opts.DialTimeout
		if remain := time.Until(deadline); remain < d {
			d = remain
		}
		if d <= 0 {
			return nil, fmt.Errorf("nodenet: dial %s: deadline exhausted", c.addr)
		}
		conn, err := net.DialTimeout("tcp", c.addr, d)
		if err == nil {
			c.stats.dialed()
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("nodenet: dial %s: %w", c.addr, err)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
}

// putIdle returns a healthy connection to the pool (or closes it if the
// client shut down meanwhile).
func (c *Client) putIdle(conn net.Conn) {
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		c.stats.connClosed()
		return
	}
	c.idle = append(c.idle, conn)
	c.mu.Unlock()
}
