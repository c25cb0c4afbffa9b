package dfs

import (
	"context"
	"fmt"
	"sync"

	"lakeharbor/internal/btree"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/sim"
)

// simNode is one in-process storage node of a simulated cluster: the
// NodeTransport NewCluster puts behind every node, and the inverse of Local.
// It owns the node's sim.Gate, the B-trees of the partitions placed on it
// with their byte accounting, and the partitions' injected faults.
type simNode struct {
	id, nodes int
	gate      *sim.Gate
	// notify fans an append out to the owning cluster's listeners; Append
	// calls it under the partition's write lock (see lockingNode).
	notify func(file string, partition int, recs []lake.Record)

	// files maps a file name to its []*partition, indexed by partition
	// number; a partition another node owns is nil. Files are created and
	// dropped rarely and read on every call, the case sync.Map serves
	// without locking readers.
	files sync.Map
}

var _ lockingNode = (*simNode)(nil)

// recordOverheadBytes is the modeled per-record storage overhead (tree node
// pointers, key headers) added to raw key+value size in a partition's byte
// accounting. Budgeted structure residency works in these modeled bytes.
const recordOverheadBytes = 32

type partition struct {
	mu   sync.RWMutex
	tree *btree.Tree
	// bytes is the modeled on-disk size of the partition: sum over records
	// of len(key)+len(data)+recordOverheadBytes. Guarded by mu.
	bytes int64

	// Fault-injection state, guarded by its own mutex so read paths do
	// not need the tree's write lock to consume a transient fault.
	faultMu sync.Mutex
	fault   error
	// faultBudget limits how many key accesses the fault affects: a
	// positive budget decrements per faulted key and the fault clears at
	// zero (a transient fault); zero means it is permanent until cleared.
	faultBudget int
}

// takeFault reports the partition's current fault (if any) for an access
// touching n keys. A transient fault's budget is consumed once per key, not
// once per call, so a batched run heals a fault after the same number of
// key accesses as an unbatched run of the same job (fault-injection parity
// across MaxBatch settings). A budget smaller than n is exhausted, not
// driven negative.
func (p *partition) takeFault(n int) error {
	p.faultMu.Lock()
	defer p.faultMu.Unlock()
	if p.fault == nil {
		return nil
	}
	err := p.fault
	if p.faultBudget > 0 {
		if n >= p.faultBudget {
			p.faultBudget = 0
			p.fault = nil
		} else {
			p.faultBudget -= n
		}
	}
	return err
}

// part returns the named file's partition i, which this node must own.
func (n *simNode) part(file string, i int) (*partition, error) {
	v, ok := n.files.Load(file)
	if !ok {
		return nil, fmt.Errorf("%w: %q", lake.ErrNoSuchFile, file)
	}
	parts := v.([]*partition)
	if i < 0 || i >= len(parts) || parts[i] == nil {
		return nil, fmt.Errorf("%w: %q/%d", lake.ErrNoSuchPartition, file, i)
	}
	return parts[i], nil
}

// charge resolves partition i for a call touching keys keys and takes its
// fault. A lookup (keys > 0) charges the gate first, so a faulted lookup
// still paid for its I/O; scans and appends (keys == 0) take the fault
// alone, touching it as one key, and leave the gate to the caller.
func (n *simNode) charge(ctx context.Context, file string, i, keys int) (*partition, error) {
	p, err := n.part(file, i)
	if err != nil {
		return nil, err
	}
	if keys > 0 {
		if err := n.gate.LookupBatch(ctx, keys, n.cross(ctx)); err != nil {
			return nil, err
		}
	}
	if err := p.takeFault(max(keys, 1)); err != nil {
		return nil, fmt.Errorf("dfs: %q/%d: %w", file, i, err)
	}
	return p, nil
}

// cross reports whether ctx's caller sits on another node, which the gate
// prices with a network round trip. A free cost model has no gate to price.
func (n *simNode) cross(ctx context.Context) bool {
	if n.gate == nil {
		return false
	}
	caller := CallerNode(ctx)
	return caller >= 0 && caller != n.id
}

// setFault arms err (nil clears) on partition i of the named file. A
// positive budget heals the fault after that many key accesses; zero makes
// it permanent until cleared.
func (n *simNode) setFault(file string, i int, err error, budget int) error {
	p, perr := n.part(file, i)
	if perr != nil {
		return perr
	}
	p.faultMu.Lock()
	p.fault, p.faultBudget = err, budget
	p.faultMu.Unlock()
	return nil
}

// CreateFile implements NodeTransport: it allocates the partitions this node
// owns (partition i lives on node i mod nodes).
func (n *simNode) CreateFile(_ context.Context, name string, _ Kind, partitions int, _ lake.Partitioner) error {
	parts := make([]*partition, partitions)
	for i := n.id; i < partitions; i += n.nodes {
		parts[i] = &partition{tree: btree.New()}
	}
	if _, exists := n.files.LoadOrStore(name, parts); exists {
		return fmt.Errorf("dfs: file %q already exists", name)
	}
	return nil
}

// DropFile implements NodeTransport.
func (n *simNode) DropFile(_ context.Context, name string) error {
	n.files.Delete(name)
	return nil
}

// records pairs a key with the values stored under it (nil when none).
func records(key lake.Key, vals [][]byte) []lake.Record {
	if len(vals) == 0 {
		return nil
	}
	recs := make([]lake.Record, len(vals))
	for j, v := range vals {
		recs[j] = lake.Record{Key: key, Data: v}
	}
	return recs
}

// Lookup implements NodeTransport.
func (n *simNode) Lookup(ctx context.Context, file string, i int, key lake.Key) ([]lake.Record, error) {
	p, err := n.charge(ctx, file, i, 1)
	if err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return records(key, p.tree.Get(key)), nil
}

// LookupBatch implements NodeTransport: the whole batch is served under ONE
// gate admission — the cost model charges full latency for the first key
// and the marginal BatchPerKey for every key after it (seek amortization)
// — and, when the caller is remote, the batch is priced as a single network
// message. A transient fault's heal budget is consumed per KEY: the batch
// stands in for len(keys) point lookups.
func (n *simNode) LookupBatch(ctx context.Context, file string, i int, keys []lake.Key) ([][]lake.Record, error) {
	p, err := n.charge(ctx, file, i, len(keys))
	if err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([][]lake.Record, len(keys))
	for k, vals := range p.tree.GetBatch(keys) {
		out[k] = records(keys[k], vals)
	}
	return out, nil
}

// LookupRange implements NodeTransport.
func (n *simNode) LookupRange(ctx context.Context, file string, i int, lo, hi lake.Key) ([]lake.Record, error) {
	p, err := n.charge(ctx, file, i, 1)
	if err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	var recs []lake.Record
	p.tree.Ascend(lo, hi, func(k string, v []byte) bool {
		recs = append(recs, lake.Record{Key: k, Data: v})
		return true
	})
	return recs, nil
}

// Scan implements NodeTransport. The fault is taken before the gate, and
// the whole partition's scan cost is charged up front as one streaming I/O;
// then records are delivered in key order.
func (n *simNode) Scan(ctx context.Context, file string, i int, fn func(lake.Record) error) error {
	p, err := n.charge(ctx, file, i, 0)
	if err != nil {
		return err
	}
	p.mu.RLock()
	size := p.tree.Len()
	p.mu.RUnlock()
	if err := n.gate.Scan(ctx, size, n.cross(ctx)); err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return scanLocked(ctx, p, fn)
}

// ScanWithBarrier implements lockingNode: barrier runs after the
// partition's read lock is acquired and before the first record is
// delivered. Admission happens under the read lock too (unlike Scan):
// releasing it to charge the gate would let appends slip between the
// barrier and the iteration, which is exactly the ambiguity the barrier
// removes. Builds therefore block concurrent appends to the partition for
// the scan's modeled service time.
func (n *simNode) ScanWithBarrier(ctx context.Context, file string, i int, barrier func(), fn func(lake.Record) error) error {
	p, err := n.charge(ctx, file, i, 0)
	if err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	barrier()
	if err := n.gate.Scan(ctx, p.tree.Len(), n.cross(ctx)); err != nil {
		return err
	}
	return scanLocked(ctx, p, fn)
}

// scanLocked iterates a partition's records in key order. The caller holds
// the partition's read lock.
func scanLocked(ctx context.Context, p *partition, fn func(lake.Record) error) error {
	var scanErr error
	p.tree.AscendAll(func(k string, v []byte) bool {
		if err := ctx.Err(); err != nil {
			scanErr = err
			return false
		}
		if err := fn(lake.Record{Key: k, Data: v}); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	return scanErr
}

// Append implements NodeTransport. Loading is not part of the measured
// experiments, so it is charged no simulated I/O cost. The cluster's
// listeners are notified under the partition's write lock, so listeners
// observe appends in the same order scans do (see Cluster.notifyAppend).
// Listeners write to OTHER files' partitions only, so lock order is always
// base → index and cannot cycle.
func (n *simNode) Append(ctx context.Context, file string, i int, recs []lake.Record) error {
	p, err := n.charge(ctx, file, i, 0)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range recs {
		p.tree.Insert(r.Key, r.Data)
		p.bytes += int64(len(r.Key) + len(r.Data) + recordOverheadBytes)
	}
	n.notify(file, i, recs)
	return nil
}

// Stat implements NodeTransport.
func (n *simNode) Stat(_ context.Context, file string, i int) (int, int64, error) {
	p, err := n.part(file, i)
	if err != nil {
		return 0, 0, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.tree.Len(), p.bytes, nil
}

// Close implements NodeTransport.
func (n *simNode) Close() error { return nil }
