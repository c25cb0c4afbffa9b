// Package dfs is the "simple distributed file system" the paper's authors
// built for ReDe in place of HDFS (§III-E: "HDFS is not well-optimized for
// non-scan accesses such as lookups").
//
// A Cluster is the front end of a shared-nothing cluster: it owns the file
// catalog and N nodes; every file is split into partitions, and partition i
// lives on node i mod N. Every access takes one path: the front end
// resolves the partition's owner, accounts the access (the node's
// metrics.Counters and the caller's trace) in one helper, and calls the
// owner's NodeTransport. NewCluster simulates the nodes in-process — each
// is a sim node whose partitions' B-trees sit behind a sim.Gate that bounds
// concurrent I/Os and charges modeled latencies — and
// NewClusterWithTransports fronts real ones (internal/nodenet). Files
// implement lake.File / lake.BtreeFile, so the ReDe engine, the baseline
// engine, and the structure builder all run against the same storage.
//
// Records returned by lookups and scans are shared, not copied; callers must
// treat Record.Data as read-only.
package dfs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lakeharbor/internal/lake"
	"lakeharbor/internal/metrics"
	"lakeharbor/internal/sim"
	"lakeharbor/internal/trace"
)

// Kind selects the access paths a file supports.
type Kind int

const (
	// Heap files support point lookups and scans (the paper's File).
	Heap Kind = iota
	// Btree files additionally support range lookups (the paper's
	// BtreeFile).
	Btree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Btree {
		return "btree"
	}
	return "heap"
}

// Config describes a simulated cluster.
type Config struct {
	// Nodes is the number of shared-nothing nodes; at least 1.
	Nodes int
	// Cost models I/O and network costs. The zero model is free/instant.
	Cost sim.CostModel
}

// Cluster is a shared-nothing storage cluster's front end and file catalog.
type Cluster struct {
	nodes []*node
	cost  sim.CostModel

	// ddl serializes CreateFile and DropFile, whose broadcasts to the
	// nodes run outside mu so catalog reads never wait on a node.
	ddl   sync.Mutex
	mu    sync.RWMutex
	files map[string]*file
	// version is the catalog version: it starts at 0 and increments on
	// every successful CreateFile/DropFile, making any catalog read
	// stampable with the exact catalog it observed.
	version     uint64
	catalogHook func(CatalogEvent)

	listenerMu sync.RWMutex
	listeners  []AppendListener
}

// node is the front end's view of one storage node: the transport that
// serves its partitions and the counters its accesses are charged to.
type node struct {
	id        int
	counters  metrics.Counters
	transport NodeTransport
}

// CatalogEvent describes one catalog mutation: the version it produced and
// the file created or dropped (Partitions/Partitioner are zero for drops).
type CatalogEvent struct {
	Version     uint64
	Drop        bool
	Name        string
	Kind        Kind
	Partitions  int
	Partitioner lake.Partitioner
}

// SetCatalogHook installs the observer invoked — under the catalog lock, so
// events arrive in version order — after every catalog mutation. The
// versioned catalog service uses it to mirror the catalog and log mutations
// to the WAL. Only one hook is supported; the hook must not call back into
// catalog mutations.
func (c *Cluster) SetCatalogHook(fn func(CatalogEvent)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.catalogHook = fn
}

// CatalogVersion returns the current catalog version.
func (c *Cluster) CatalogVersion() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// AppendListener observes every record appended to any file; the structure
// maintainer uses it to keep built indexes in sync with new data. Listeners
// run synchronously on the appending goroutine — on a sim node under the
// appended partition's write lock (see notifyAppend) — and must not block
// for long.
type AppendListener func(file string, partition int, rec lake.Record)

// AddAppendListener registers a listener for all future appends.
func (c *Cluster) AddAppendListener(fn AppendListener) {
	c.listenerMu.Lock()
	defer c.listenerMu.Unlock()
	c.listeners = append(c.listeners, fn)
}

// notifyAppend fans an append out to the listeners. A sim node calls it
// while the appended partition's write lock is still held, so for any one
// partition the pair (insert, notify) is atomic with respect to a scan's
// read lock: a listener has either been told about a record before a scan
// can start, or will be told only after the scan finished. Online structure
// builds depend on that ordering to decide whether the build scan or the
// maintainer owns a record appended mid-build (see indexer.Maintainer).
func (c *Cluster) notifyAppend(file string, partition int, recs []lake.Record) {
	c.listenerMu.RLock()
	listeners := c.listeners
	c.listenerMu.RUnlock()
	for _, fn := range listeners {
		for _, r := range recs {
			fn(file, partition, r)
		}
	}
}

// NewCluster creates a simulated cluster of cfg.Nodes (minimum 1) sim
// nodes, each with its own gate over cfg.Cost.
func NewCluster(cfg Config) *Cluster {
	n := max(cfg.Nodes, 1)
	c := &Cluster{cost: cfg.Cost, files: make(map[string]*file)}
	for i := 0; i < n; i++ {
		sn := &simNode{id: i, nodes: n, gate: sim.NewGate(cfg.Cost), notify: c.notifyAppend}
		c.nodes = append(c.nodes, &node{id: i, transport: sn})
	}
	return c
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Cost returns the cluster's cost model.
func (c *Cluster) Cost() sim.CostModel { return c.cost }

// TotalMetrics aggregates a snapshot across all nodes.
func (c *Cluster) TotalMetrics() metrics.Snapshot {
	var s metrics.Snapshot
	for _, n := range c.nodes {
		s = s.Add(n.counters.Snapshot())
	}
	return s
}

// CreateFile registers a new empty file on every node. Partition i is
// placed on node i mod NumNodes, matching the paper's round-robin
// distribution.
func (c *Cluster) CreateFile(name string, kind Kind, partitions int, p lake.Partitioner) (lake.File, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("dfs: file %q: partitions must be >= 1, got %d", name, partitions)
	}
	if p == nil {
		return nil, fmt.Errorf("dfs: file %q: nil partitioner", name)
	}
	c.ddl.Lock()
	defer c.ddl.Unlock()
	if _, err := c.file(name); err == nil {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	// Create on the nodes before registering, rolling back the ones that
	// succeeded, so a node failure leaves the catalog untouched.
	ctx := context.Background()
	ts := c.distinctTransports()
	for i, t := range ts {
		if err := t.CreateFile(ctx, name, kind, partitions, p); err != nil {
			for _, done := range ts[:i] {
				done.DropFile(ctx, name) //nolint:errcheck // best-effort rollback
			}
			return nil, fmt.Errorf("dfs: create %q on node transport: %w", name, err)
		}
	}
	f := &file{cluster: c, name: name, kind: kind, partitioner: p, partitions: partitions}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.files[name] = f
	c.version++
	if c.catalogHook != nil {
		c.catalogHook(CatalogEvent{
			Version: c.version, Name: name, Kind: kind,
			Partitions: partitions, Partitioner: p,
		})
	}
	return f, nil
}

// DropFile removes a file from the catalog and its data from the nodes
// (used by tests and by the structure builder when replacing an index).
// Dropping a file that does not exist is a no-op and does not bump the
// catalog version.
func (c *Cluster) DropFile(name string) {
	c.ddl.Lock()
	defer c.ddl.Unlock()
	c.mu.Lock()
	if _, ok := c.files[name]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.files, name)
	c.version++
	if c.catalogHook != nil {
		c.catalogHook(CatalogEvent{Version: c.version, Drop: true, Name: name})
	}
	c.mu.Unlock()
	// Drops are best-effort: the catalog is authoritative, and a node that
	// missed the drop only holds dead data.
	for _, t := range c.distinctTransports() {
		t.DropFile(context.Background(), name) //nolint:errcheck
	}
}

// file returns the named catalog entry.
func (c *Cluster) file(name string) (*file, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", lake.ErrNoSuchFile, name)
	}
	return f, nil
}

// File implements lake.Catalog.
func (c *Cluster) File(name string) (lake.File, error) {
	f, err := c.file(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// BtreeFile returns the named file if it supports range lookups.
func (c *Cluster) BtreeFile(name string) (lake.BtreeFile, error) {
	f, err := c.file(name)
	if err != nil {
		return nil, err
	}
	if f.kind != Btree {
		return nil, lake.AsPermanent(fmt.Errorf("dfs: file %q is not a btree file", name))
	}
	return f, nil
}

// FileNames returns the catalog contents (for tools and tests).
func (c *Cluster) FileNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.files))
	for n := range c.files {
		out = append(out, n)
	}
	return out
}

// OwnerNode returns the node hosting the given partition.
func (c *Cluster) OwnerNode(partition int) int { return partition % len(c.nodes) }

// NodeGate returns sim node i's I/O gate, or nil when the cluster's cost
// model is free (a free gate admits everything instantly and has nothing to
// hook) or node i is not a sim node. Chaos injection uses it to install
// latency overrides and queue squeezes.
func (c *Cluster) NodeGate(i int) *sim.Gate {
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	if sn, ok := c.nodes[i].transport.(*simNode); ok {
		return sn.gate
	}
	return nil
}

// SetFault injects err into every access to the named file's partition
// (err == nil clears it). It exists for failure-injection tests.
func (c *Cluster) SetFault(name string, partition int, err error) error {
	return c.setFault(name, partition, err, 0)
}

// SetTransientFault injects err into the next `times` key accesses to the
// partition, after which it heals itself — the shape of a flaky disk or a
// brief network partition, used by retry tests.
func (c *Cluster) SetTransientFault(name string, partition int, err error, times int) error {
	if times <= 0 {
		return fmt.Errorf("dfs: transient fault needs times > 0, got %d", times)
	}
	return c.setFault(name, partition, err, times)
}

// setFault arms a fault on the sim node owning the partition.
func (c *Cluster) setFault(name string, partition int, err error, budget int) error {
	f, ferr := c.file(name)
	if ferr != nil {
		return ferr
	}
	owner, perr := f.owner(partition)
	if perr != nil {
		return perr
	}
	sn, ok := owner.transport.(*simNode)
	if !ok {
		return errors.New("dfs: fault injection needs the in-process sim; wrap the node transports instead")
	}
	return sn.setFault(name, partition, err, budget)
}

// callerKey carries the identity of the node issuing an access, so dfs can
// tell local from remote (cross-partition) accesses.
type callerKey struct{}

// WithCaller marks ctx as originating from the given compute node.
func WithCaller(ctx context.Context, nodeID int) context.Context {
	return context.WithValue(ctx, callerKey{}, nodeID)
}

// CallerNode returns the node that issued ctx, or -1 for external callers
// (loaders, tools), which are charged as local.
func CallerNode(ctx context.Context) int {
	if v, ok := ctx.Value(callerKey{}).(int); ok {
		return v
	}
	return -1
}

// file implements lake.BtreeFile over the cluster's nodes. It holds only
// catalog metadata; the partitions live behind the owners' transports,
// which resolve the file by name on every call.
type file struct {
	cluster     *Cluster
	name        string
	kind        Kind
	partitioner lake.Partitioner
	partitions  int
}

// Name implements lake.File.
func (f *file) Name() string { return f.name }

// NumPartitions implements lake.File.
func (f *file) NumPartitions() int { return f.partitions }

// Partitioner implements lake.File.
func (f *file) Partitioner() lake.Partitioner { return f.partitioner }

// Kind returns whether the file is a heap or btree file.
func (f *file) Kind() Kind { return f.kind }

// owner returns the node hosting partition i.
func (f *file) owner(i int) (*node, error) {
	if i < 0 || i >= f.partitions {
		return nil, fmt.Errorf("%w: %q/%d", lake.ErrNoSuchPartition, f.name, i)
	}
	return f.cluster.nodes[f.cluster.OwnerNode(i)], nil
}

// access is one read of a partition, accounted the same way whichever
// transport serves it.
type access struct {
	owner *node
	io    *trace.NodeIO
	cross bool
	t0    time.Time
}

// begin resolves partition i's owner and opens a read of it: a cross-node
// caller counts a remote fetch, and a traced caller (queries run through
// the SMPE executor) observes the access as local or remote I/O on its
// node's trace.
func (f *file) begin(ctx context.Context, i int) (access, error) {
	owner, err := f.owner(i)
	if err != nil {
		return access{}, err
	}
	a := access{owner: owner, io: trace.IOFrom(ctx)}
	if caller := CallerNode(ctx); caller >= 0 && caller != owner.id {
		a.cross = true
		owner.counters.AddRemoteFetch()
	}
	if a.io != nil {
		a.io.Observe(a.cross)
		a.t0 = time.Now()
	}
	return a, nil
}

// observe records the round-trip time since begin — gate queueing and
// modeled service on a sim node, the wire round trip over nodenet — in the
// caller's I/O latency histograms.
func (a access) observe() {
	if a.io != nil {
		a.io.ObserveLatency(a.cross, time.Since(a.t0))
	}
}

// read closes a lookup: on success it observes the latency and counts the
// records and payload bytes delivered.
func (a access) read(err error, groups ...[]lake.Record) error {
	if err != nil {
		return err
	}
	a.observe()
	n, bytes := 0, 0
	for _, recs := range groups {
		n += len(recs)
		for _, r := range recs {
			bytes += len(r.Data)
		}
	}
	a.owner.counters.AddRecordsRead(n)
	a.owner.counters.AddBytesRead(bytes)
	return nil
}

// Lookup implements lake.File.
func (f *file) Lookup(ctx context.Context, partitionIdx int, key lake.Key) ([]lake.Record, error) {
	a, err := f.begin(ctx, partitionIdx)
	if err != nil {
		return nil, err
	}
	a.owner.counters.AddLookup()
	recs, err := a.owner.transport.Lookup(ctx, f.name, partitionIdx, key)
	if err = a.read(err, recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// LookupBatch implements lake.BatchFile: the whole batch is one storage
// call — one admission on a sim node, one round trip over nodenet — so it
// counts as one lookup (and, from a remote caller, one remote fetch), with
// its keys tallied separately.
func (f *file) LookupBatch(ctx context.Context, partitionIdx int, keys []lake.Key) ([][]lake.Record, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	a, err := f.begin(ctx, partitionIdx)
	if err != nil {
		return nil, err
	}
	a.owner.counters.AddBatchLookup(len(keys))
	out, err := a.owner.transport.LookupBatch(ctx, f.name, partitionIdx, keys)
	if err = a.read(err, out...); err != nil {
		return nil, err
	}
	return out, nil
}

// LookupRange implements lake.BtreeFile. It returns every record with
// lo <= key <= hi in the partition, in key order.
func (f *file) LookupRange(ctx context.Context, partitionIdx int, lo, hi lake.Key) ([]lake.Record, error) {
	if f.kind != Btree {
		return nil, lake.AsPermanent(fmt.Errorf("dfs: file %q is not a btree file", f.name))
	}
	a, err := f.begin(ctx, partitionIdx)
	if err != nil {
		return nil, err
	}
	a.owner.counters.AddLookup()
	recs, err := a.owner.transport.LookupRange(ctx, f.name, partitionIdx, lo, hi)
	if err = a.read(err, recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// Scan implements lake.File: records are delivered in key order.
func (f *file) Scan(ctx context.Context, partitionIdx int, fn func(lake.Record) error) error {
	return f.ScanWithBarrier(ctx, partitionIdx, nil, fn)
}

// ScanWithBarrier is Scan with one extra guarantee on a lockingNode:
// barrier is invoked after the partition's read lock is acquired and before
// the first record is delivered. An append's (insert, notify) pair is
// atomic under the same lock, so everything notified before barrier runs is
// visible to this scan, and everything notified after it is not. The
// structure builder uses the barrier to flip a partition's maintenance from
// "buffered" to "live" at exactly the point where responsibility for new
// records changes hands. Over any other transport it degrades to
// barrier-then-scan, as lake.ScanWithBarrier does for files without
// barriers; a nil barrier makes it a plain Scan. The latency it observes is
// the time to the first record (or to the end of an empty scan), so a slow
// consumer does not count as storage time.
func (f *file) ScanWithBarrier(ctx context.Context, partitionIdx int, barrier func(), fn func(lake.Record) error) error {
	a, err := f.begin(ctx, partitionIdx)
	if err != nil {
		return err
	}
	scanned, bytes := 0, 0
	count := func(r lake.Record) error {
		if scanned == 0 {
			a.observe()
		}
		scanned++
		bytes += len(r.Data)
		return fn(r)
	}
	if ln, ok := a.owner.transport.(lockingNode); ok && barrier != nil {
		err = ln.ScanWithBarrier(ctx, f.name, partitionIdx, barrier, count)
	} else {
		if barrier != nil {
			barrier()
		}
		err = a.owner.transport.Scan(ctx, f.name, partitionIdx, count)
	}
	if scanned == 0 && err == nil {
		a.observe()
	}
	a.owner.counters.AddRecordsScanned(scanned)
	a.owner.counters.AddBytesRead(bytes)
	return err
}

// Append implements lake.File.
func (f *file) Append(ctx context.Context, partitionIdx int, recs ...lake.Record) error {
	owner, err := f.owner(partitionIdx)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := owner.transport.Append(ctx, f.name, partitionIdx, recs); err != nil {
		return err
	}
	if _, ok := owner.transport.(lockingNode); !ok {
		// A lockingNode notified under its partition lock. Any other
		// transport inserted remotely, so listeners hear of the append
		// only now, outside any lock (see lockingNode).
		f.cluster.notifyAppend(f.name, partitionIdx, recs)
	}
	owner.counters.AddAppend(len(recs))
	return nil
}

// AppendRouted routes each record through the file's partitioner using the
// given partition key and appends it. It is the loader-side convenience for
// files whose partition key differs from the record key.
func AppendRouted(ctx context.Context, f lake.File, partKey lake.Key, rec lake.Record) error {
	p := f.Partitioner().Partition(partKey, f.NumPartitions())
	return f.Append(ctx, p, rec)
}

// Len returns the total number of records across all partitions of the
// named file (tooling/tests helper).
func (c *Cluster) Len(name string) (int, error) {
	f, err := c.file(name)
	if err != nil {
		return 0, err
	}
	recs, _, err := f.totals()
	return recs, err
}

// totals sums record count and modeled bytes across partitions via each
// owner's Stat.
func (f *file) totals() (int, int64, error) {
	ctx := context.Background()
	recs, bytes := 0, int64(0)
	for i := 0; i < f.partitions; i++ {
		owner, _ := f.owner(i)
		r, b, err := owner.transport.Stat(ctx, f.name, i)
		if err != nil {
			return 0, 0, err
		}
		recs += r
		bytes += b
	}
	return recs, bytes, nil
}

// FileSizeBytes returns the named file's total modeled size in bytes
// (sum of per-partition byte accounting). The lifecycle manager charges a
// structure's residency against Options.StructureBudget with this number.
func (c *Cluster) FileSizeBytes(name string) (int64, error) {
	f, err := c.file(name)
	if err != nil {
		return 0, err
	}
	return f.SizeBytes(), nil
}

// SizeBytes implements lake.SizedFile: the file's total modeled size, or 0
// when a node cannot report it.
func (f *file) SizeBytes() int64 {
	_, bytes, err := f.totals()
	if err != nil {
		return 0
	}
	return bytes
}

// Bind marks ctx as executing on the given node, so subsequent accesses are
// charged local or remote accordingly. It satisfies the query engines'
// Topology interface.
func (c *Cluster) Bind(ctx context.Context, nodeID int) context.Context {
	return WithCaller(ctx, nodeID)
}
