package dfs

import (
	"context"
	"fmt"

	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
)

// NodeTransport is the seam between a Cluster's front end and one storage
// node: a sim node (NewCluster), the nodenet TCP client, or a chaos proxy
// wrapping either (NewClusterWithTransports). Every method addresses a
// (file, partition) pair whose partition is owned by the node behind the
// transport; callers resolve ownership first (partition i of every file
// lives on node i mod NumNodes).
//
// Implementations must classify failures the way the retry machinery
// expects: errors that can never heal (unknown file, bad partition index,
// malformed protocol frames) are marked with lake.AsPermanent or wrap
// lake.ErrNoSuchFile/lake.ErrNoSuchPartition; everything else (connection
// refused, timeouts, injected faults) stays transient and is retried by the
// executor with backoff.
type NodeTransport interface {
	// CreateFile registers a new empty file on the node.
	CreateFile(ctx context.Context, name string, kind Kind, partitions int, p lake.Partitioner) error
	// DropFile removes a file; dropping an unknown file is a no-op.
	DropFile(ctx context.Context, name string) error
	// Lookup returns the records stored under key in the partition.
	Lookup(ctx context.Context, file string, partition int, key lake.Key) ([]lake.Record, error)
	// LookupBatch serves a whole pointer batch in one round trip; out[i]
	// holds the records for keys[i] (the executor's batch shape, and the
	// wire unit of the networked transport).
	LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error)
	// LookupRange returns every record with lo <= key <= hi, in key order.
	LookupRange(ctx context.Context, file string, partition int, lo, hi lake.Key) ([]lake.Record, error)
	// Scan delivers the partition's records in key order.
	Scan(ctx context.Context, file string, partition int, fn func(lake.Record) error) error
	// Append inserts records into the partition.
	Append(ctx context.Context, file string, partition int, recs []lake.Record) error
	// Stat reports the partition's record count and modeled byte size.
	Stat(ctx context.Context, file string, partition int) (records int, bytes int64, err error)
	// Close releases the transport's resources (connections, pools).
	Close() error
}

// lockingNode is the capability of a transport whose partitions live in
// this process under locks — the sim node. Its Append notifies the
// cluster's append listeners under the partition's write lock, so each
// (insert, notify) pair is atomic with respect to scans, and its
// ScanWithBarrier runs barrier under the read lock before the first record.
// Over any other transport both pairs degrade: listeners hear of an append
// after the remote insert, and a barrier scan is barrier-then-scan. Appends
// racing such a scan may be seen by both the barrier-side listener and the
// scan, so exactly-once online structure builds need a lockingNode.
type lockingNode interface {
	ScanWithBarrier(ctx context.Context, file string, partition int, barrier func(), fn func(lake.Record) error) error
}

type localTransport struct{ c *Cluster }

// Local returns the NodeTransport over the cluster — the inverse of a sim
// node, and the storage side of a networked node (the lakenode server
// executes decoded RPCs against it). Operations run the cluster's own file
// methods, with the same gate admission, counters, and fault injection as
// direct calls.
func Local(c *Cluster) NodeTransport { return localTransport{c} }

// serve resolves the named file on the backing cluster. The context it
// returns drops the caller's trace: the front end in front of this
// transport has already observed the access, and the backing cluster must
// not count it a second time.
func (t localTransport) serve(ctx context.Context, name string) (context.Context, *file, error) {
	f, err := t.c.file(name)
	return trace.WithIO(ctx, nil), f, err
}

func (t localTransport) CreateFile(_ context.Context, name string, kind Kind, partitions int, p lake.Partitioner) error {
	_, err := t.c.CreateFile(name, kind, partitions, p)
	return err
}

func (t localTransport) DropFile(_ context.Context, name string) error {
	t.c.DropFile(name)
	return nil
}

func (t localTransport) Lookup(ctx context.Context, file string, partition int, key lake.Key) ([]lake.Record, error) {
	ctx, f, err := t.serve(ctx, file)
	if err != nil {
		return nil, err
	}
	return f.Lookup(ctx, partition, key)
}

func (t localTransport) LookupBatch(ctx context.Context, file string, partition int, keys []lake.Key) ([][]lake.Record, error) {
	ctx, f, err := t.serve(ctx, file)
	if err != nil {
		return nil, err
	}
	return f.LookupBatch(ctx, partition, keys)
}

func (t localTransport) LookupRange(ctx context.Context, file string, partition int, lo, hi lake.Key) ([]lake.Record, error) {
	ctx, f, err := t.serve(ctx, file)
	if err != nil {
		return nil, err
	}
	return f.LookupRange(ctx, partition, lo, hi)
}

func (t localTransport) Scan(ctx context.Context, file string, partition int, fn func(lake.Record) error) error {
	ctx, f, err := t.serve(ctx, file)
	if err != nil {
		return err
	}
	return f.Scan(ctx, partition, fn)
}

func (t localTransport) Append(ctx context.Context, file string, partition int, recs []lake.Record) error {
	ctx, f, err := t.serve(ctx, file)
	if err != nil {
		return err
	}
	return f.Append(ctx, partition, recs...)
}

func (t localTransport) Stat(ctx context.Context, file string, partition int) (int, int64, error) {
	f, err := t.c.file(file)
	if err != nil {
		return 0, 0, err
	}
	owner, err := f.owner(partition)
	if err != nil {
		return 0, 0, err
	}
	return owner.transport.Stat(ctx, file, partition)
}

func (t localTransport) Close() error { return nil }

// NewClusterWithTransports builds a cluster whose node i delegates every
// operation to transports[i] — the front end of a real multi-process data
// plane. The cluster keeps only catalog metadata locally; record data lives
// behind the transports. CreateFile/DropFile broadcast to every distinct
// transport so each node knows the full catalog.
//
// cfg is ignored: the node count is len(transports), and the front end
// charges no simulated cost on top of the transports' own (Cost reports the
// zero model).
//
// Such a cluster has no sim nodes, so it rejects fault injection
// (SetFault/SetTransientFault) and has no gates (NodeGate returns nil):
// inject at the transport layer instead (chaos.WrapTransport). It also
// lacks the lockingNode guarantees, so exactly-once online structure builds
// require NewCluster.
func NewClusterWithTransports(_ Config, transports []NodeTransport) (*Cluster, error) {
	if len(transports) == 0 {
		return nil, fmt.Errorf("dfs: NewClusterWithTransports needs at least one transport")
	}
	c := &Cluster{files: make(map[string]*file)}
	for i, t := range transports {
		if t == nil {
			return nil, fmt.Errorf("dfs: transport %d is nil", i)
		}
		c.nodes = append(c.nodes, &node{id: i, transport: t})
	}
	return c, nil
}

// distinctTransports lists the cluster's transports, deduplicated (several
// nodes may share one), in node order.
func (c *Cluster) distinctTransports() []NodeTransport {
	seen := make(map[NodeTransport]bool, len(c.nodes))
	var out []NodeTransport
	for _, n := range c.nodes {
		if !seen[n.transport] {
			seen[n.transport] = true
			out = append(out, n.transport)
		}
	}
	return out
}
