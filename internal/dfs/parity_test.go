package dfs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lakeharbor/internal/keycodec"
	"lakeharbor/internal/lake"
	"lakeharbor/internal/trace"
)

// errClass names the class the retry machinery sees in err.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, lake.ErrNoSuchFile):
		return "no-such-file"
	case errors.Is(err, lake.ErrNoSuchPartition):
		return "no-such-partition"
	case lake.IsPermanent(err):
		return "permanent"
	}
	return "transient"
}

func render(recs []lake.Record) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%x=%s ", r.Key, r.Data)
	}
	return b.String()
}

// TestSimTransportParity runs one operation script against a 3-node sim
// cluster and against a front end over three transports, each a Local over
// a 1-node sim cluster. Both take the same front-end path, so every step
// must return the same records and error class and leave the same
// TotalMetrics and trace I/O totals behind.
func TestSimTransportParity(t *testing.T) {
	const nodes, parts = 3, 5
	var transports []NodeTransport
	for i := 0; i < nodes; i++ {
		transports = append(transports, Local(NewCluster(Config{Nodes: 1})))
	}
	front, err := NewClusterWithTransports(Config{}, transports)
	if err != nil {
		t.Fatal(err)
	}
	clusters := []*Cluster{NewCluster(Config{Nodes: nodes}), front}
	key := func(i int) lake.Key { return keycodec.Int64(int64(i)) }
	routed := func(f lake.File, p int) []lake.Key {
		var keys []lake.Key
		for i := 0; i < 50; i++ {
			if f.Partitioner().Partition(key(i), f.NumPartitions()) == p {
				keys = append(keys, key(i))
			}
		}
		return keys
	}
	// eachPart runs fn over every partition of the named file.
	eachPart := func(c *Cluster, name string, fn func(f lake.File, p int) (string, error)) (string, error) {
		f, err := c.File(name)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for p := 0; p < f.NumPartitions(); p++ {
			out, err := fn(f, p)
			if err != nil {
				return b.String(), err
			}
			fmt.Fprintf(&b, "p%d[%s] ", p, out)
		}
		return b.String(), nil
	}

	steps := []struct {
		name string
		run  func(ctx context.Context, c *Cluster) (string, error)
	}{
		{"create", func(_ context.Context, c *Cluster) (string, error) {
			if _, err := c.CreateFile("h", Heap, 2, lake.HashPartitioner{}); err != nil {
				return "", err
			}
			_, err := c.CreateFile("t", Btree, parts, lake.HashPartitioner{})
			return "", err
		}},
		{"create duplicate", func(_ context.Context, c *Cluster) (string, error) {
			_, err := c.CreateFile("t", Btree, parts, lake.HashPartitioner{})
			return "", err
		}},
		{"append", func(ctx context.Context, c *Cluster) (string, error) {
			t, _ := c.File("t")
			h, _ := c.File("h")
			for i := 0; i < 60; i++ {
				rec := lake.Record{Key: key(i % 45), Data: []byte(fmt.Sprintf("v%d", i))}
				if err := AppendRouted(ctx, t, rec.Key, rec); err != nil {
					return "", err
				}
				if i < 10 {
					if err := AppendRouted(ctx, h, rec.Key, rec); err != nil {
						return "", err
					}
				}
			}
			return "", nil
		}},
		{"lookup", func(ctx context.Context, c *Cluster) (string, error) {
			return eachPart(c, "t", func(f lake.File, p int) (string, error) {
				var out string
				for _, k := range routed(f, p) {
					recs, err := f.Lookup(ctx, p, k)
					if err != nil {
						return out, err
					}
					out += render(recs)
				}
				return out, nil
			})
		}},
		{"batch lookup", func(ctx context.Context, c *Cluster) (string, error) {
			return eachPart(c, "t", func(f lake.File, p int) (string, error) {
				groups, err := f.(lake.BatchFile).LookupBatch(ctx, p, append(routed(f, p), "\x00missing"))
				var out string
				for _, g := range groups {
					out += render(g) + "| "
				}
				return out, err
			})
		}},
		{"range lookup", func(ctx context.Context, c *Cluster) (string, error) {
			return eachPart(c, "t", func(f lake.File, p int) (string, error) {
				recs, err := f.(lake.BtreeFile).LookupRange(ctx, p, key(5), key(30))
				return render(recs), err
			})
		}},
		{"range lookup on heap", func(ctx context.Context, c *Cluster) (string, error) {
			h, _ := c.File("h")
			_, err := h.(lake.BtreeFile).LookupRange(ctx, 0, key(0), key(9))
			return "", err
		}},
		{"scan", func(ctx context.Context, c *Cluster) (string, error) {
			return eachPart(c, "t", func(f lake.File, p int) (string, error) {
				var recs []lake.Record
				err := f.Scan(ctx, p, func(r lake.Record) error {
					recs = append(recs, r)
					return nil
				})
				return render(recs), err
			})
		}},
		{"barrier scan", func(ctx context.Context, c *Cluster) (string, error) {
			return eachPart(c, "t", func(f lake.File, p int) (string, error) {
				out := ""
				err := lake.ScanWithBarrier(ctx, f, p, func() { out += "barrier " }, func(r lake.Record) error {
					out += render([]lake.Record{r})
					return nil
				})
				return out, err
			})
		}},
		{"len and size", func(_ context.Context, c *Cluster) (string, error) {
			n, err := c.Len("t")
			if err != nil {
				return "", err
			}
			size, err := c.FileSizeBytes("t")
			f, _ := c.File("t")
			return fmt.Sprintf("len=%d size=%d sized=%d", n, size, lake.SizeBytes(f)), err
		}},
		{"unknown file", func(_ context.Context, c *Cluster) (string, error) {
			if _, err := c.Len("nope"); errClass(err) != "no-such-file" {
				return "", fmt.Errorf("Len: %v", err)
			}
			_, err := c.File("nope")
			return "", err
		}},
		{"unknown partition", func(ctx context.Context, c *Cluster) (string, error) {
			f, _ := c.File("t")
			if err := f.Scan(ctx, -1, func(lake.Record) error { return nil }); errClass(err) != "no-such-partition" {
				return "", fmt.Errorf("Scan: %v", err)
			}
			if err := f.Append(ctx, parts, lake.Record{Key: key(1)}); errClass(err) != "no-such-partition" {
				return "", fmt.Errorf("Append: %v", err)
			}
			_, err := f.Lookup(ctx, parts, key(1))
			return "", err
		}},
		{"drop", func(_ context.Context, c *Cluster) (string, error) {
			c.DropFile("t")
			if _, err := c.Len("t"); errClass(err) != "no-such-file" {
				return "", fmt.Errorf("Len after drop: %v", err)
			}
			_, err := c.File("t")
			return "", err
		}},
	}

	traces := []*trace.Trace{trace.New("sim", nil, nodes), trace.New("transports", nil, nodes)}
	for i, step := range steps {
		caller := i % nodes
		var outs, classes [2]string
		for j, c := range clusters {
			ctx := trace.WithIO(c.Bind(context.Background(), caller), traces[j].NodeIO(caller))
			out, err := step.run(ctx, c)
			outs[j], classes[j] = out, errClass(err)
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: records differ\n sim:        %s\n transports: %s", step.name, outs[0], outs[1])
		}
		if classes[0] != classes[1] {
			t.Errorf("%s: error class sim=%s transports=%s", step.name, classes[0], classes[1])
		}
		if a, b := clusters[0].TotalMetrics(), clusters[1].TotalMetrics(); a != b {
			t.Errorf("%s: TotalMetrics differ\n sim:        %+v\n transports: %+v", step.name, a, b)
		}
		a, b := traces[0].Snapshot(nil).Nodes, traces[1].Snapshot(nil).Nodes
		for n := range a {
			if a[n].LocalIO != b[n].LocalIO || a[n].RemoteIO != b[n].RemoteIO {
				t.Errorf("%s: node %d trace I/O sim=%d/%d transports=%d/%d (local/remote)",
					step.name, n, a[n].LocalIO, a[n].RemoteIO, b[n].LocalIO, b[n].RemoteIO)
			}
		}
	}
	// The script must have exercised what it claims to compare.
	if m := clusters[0].TotalMetrics(); m.RemoteFetches == 0 || m.BatchLookups == 0 || m.RecordsScanned == 0 {
		t.Errorf("script left metrics %+v; want remote fetches, batches, and scans", m)
	}
	if a := traces[0].Snapshot(nil).Nodes; a[0].LocalIO == 0 || a[1].RemoteIO == 0 {
		t.Errorf("script left trace I/O %+v; want local and remote accesses", a)
	}
}
