package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakeharbor/internal/core"
	"lakeharbor/internal/lake"
)

// This file holds the traced run's spans: wrappers around the calls the
// executor makes into storage (every lake.File method, through a wrapping
// lake.Catalog) and into the job's stage functions. The wrappers forward
// every optional interface the wrapped value implements, so a traced job
// takes the same code paths — batched lookups, range reads, barrier scans —
// as an untraced one.

// layerSpans aggregates the spans of one traced window.
type layerSpans struct {
	mu       sync.Mutex
	dfsCalls int64
	dfsKeys  int64
	dfsBusy  time.Duration
	dfsDur   []time.Duration
	// stageSelf is the time stage functions spent outside storage calls:
	// schema-on-read interpretation, filters, key encoding, combining.
	stageSelf time.Duration
}

func (s *layerSpans) storage(d time.Duration, keys int) {
	s.mu.Lock()
	s.dfsCalls++
	s.dfsKeys += int64(keys)
	s.dfsBusy += d
	s.dfsDur = append(s.dfsDur, d)
	s.mu.Unlock()
}

func (s *layerSpans) stage(d time.Duration) {
	s.mu.Lock()
	s.stageSelf += d
	s.mu.Unlock()
}

// childKey carries a stage call's accumulator of nested storage time, so the
// stage's self time excludes the storage spans it caused.
type childKey struct{}

func addChild(ctx context.Context, d time.Duration) {
	if acc, ok := ctx.Value(childKey{}).(*atomic.Int64); ok {
		acc.Add(int64(d))
	}
}

// tracedCatalog wraps a catalog so every file it returns is traced.
type tracedCatalog struct {
	inner lake.Catalog
	spans *layerSpans
	files sync.Map // lake.File -> *tracedFile
}

// File implements lake.Catalog.
func (c *tracedCatalog) File(name string) (lake.File, error) {
	f, err := c.inner.File(name)
	if err != nil {
		return nil, err
	}
	if tf, ok := c.files.Load(f); ok {
		return tf.(*tracedFile), nil
	}
	full, ok := f.(fullFile)
	if !ok {
		// A file without every optional interface would need a wrapper of
		// its own shape; failing keeps the traced run on the untraced
		// run's code paths.
		return nil, fmt.Errorf("lhbench: file %q (%T) lacks an optional lake interface the tracer forwards", name, f)
	}
	tf, _ := c.files.LoadOrStore(f, &tracedFile{inner: full, spans: c.spans})
	return tf.(*tracedFile), nil
}

// fullFile is a storage file with every optional lake interface, as dfs
// files are.
type fullFile interface {
	lake.BtreeFile
	LookupBatch(ctx context.Context, partition int, keys []lake.Key) ([][]lake.Record, error)
	SizeBytes() int64
	ScanWithBarrier(ctx context.Context, partition int, barrier func(), fn func(lake.Record) error) error
}

var (
	_ lake.BtreeFile      = (*tracedFile)(nil)
	_ lake.BatchFile      = (*tracedFile)(nil)
	_ lake.SizedFile      = (*tracedFile)(nil)
	_ lake.BarrierScanner = (*tracedFile)(nil)
)

// tracedFile times every data call into a storage file.
type tracedFile struct {
	inner fullFile
	spans *layerSpans
}

func (f *tracedFile) done(ctx context.Context, t0 time.Time, keys int) {
	d := time.Since(t0)
	f.spans.storage(d, keys)
	addChild(ctx, d)
}

func (f *tracedFile) Name() string                  { return f.inner.Name() }
func (f *tracedFile) NumPartitions() int            { return f.inner.NumPartitions() }
func (f *tracedFile) Partitioner() lake.Partitioner { return f.inner.Partitioner() }
func (f *tracedFile) SizeBytes() int64              { return f.inner.SizeBytes() }

func (f *tracedFile) Lookup(ctx context.Context, p int, key lake.Key) ([]lake.Record, error) {
	t0 := time.Now()
	defer f.done(ctx, t0, 1)
	return f.inner.Lookup(ctx, p, key)
}

func (f *tracedFile) LookupRange(ctx context.Context, p int, lo, hi lake.Key) ([]lake.Record, error) {
	t0 := time.Now()
	defer f.done(ctx, t0, 1)
	return f.inner.LookupRange(ctx, p, lo, hi)
}

func (f *tracedFile) LookupBatch(ctx context.Context, p int, keys []lake.Key) ([][]lake.Record, error) {
	t0 := time.Now()
	defer f.done(ctx, t0, len(keys))
	return f.inner.LookupBatch(ctx, p, keys)
}

func (f *tracedFile) Scan(ctx context.Context, p int, fn func(lake.Record) error) error {
	t0 := time.Now()
	defer f.done(ctx, t0, 0)
	return f.inner.Scan(ctx, p, fn)
}

func (f *tracedFile) ScanWithBarrier(ctx context.Context, p int, barrier func(), fn func(lake.Record) error) error {
	t0 := time.Now()
	defer f.done(ctx, t0, 0)
	return f.inner.ScanWithBarrier(ctx, p, barrier, fn)
}

func (f *tracedFile) Append(ctx context.Context, p int, recs ...lake.Record) error {
	t0 := time.Now()
	defer f.done(ctx, t0, len(recs))
	return f.inner.Append(ctx, p, recs...)
}

// traceStages wraps every stage function of job in place.
func traceStages(job *core.Job, spans *layerSpans) {
	for i, st := range job.Stages {
		if st.Deref != nil {
			job.Stages[i].Deref = wrapDeref(st.Deref, spans)
		} else {
			job.Stages[i].Ref = tracedRef{inner: st.Ref, spans: spans}
		}
	}
}

// wrapDeref returns a traced Dereferencer that implements BatchDereferencer
// exactly when d does.
func wrapDeref(d core.Dereferencer, spans *layerSpans) core.Dereferencer {
	td := tracedDeref{inner: d, spans: spans}
	if bd, ok := d.(core.BatchDereferencer); ok {
		return tracedBatchDeref{tracedDeref: td, batch: bd}
	}
	return td
}

type tracedDeref struct {
	inner core.Dereferencer
	spans *layerSpans
}

func (d tracedDeref) Name() string { return d.inner.Name() }

// child returns a copy of tc whose context collects nested storage time.
func child(tc *core.TaskCtx) (*core.TaskCtx, *atomic.Int64) {
	acc := new(atomic.Int64)
	c := *tc
	c.Ctx = context.WithValue(tc.Ctx, childKey{}, acc)
	return &c, acc
}

func (d tracedDeref) Deref(tc *core.TaskCtx, ptr lake.Pointer) ([]lake.Record, error) {
	c, acc := child(tc)
	t0 := time.Now()
	recs, err := d.inner.Deref(c, ptr)
	d.spans.stage(time.Since(t0) - time.Duration(acc.Load()))
	return recs, err
}

type tracedBatchDeref struct {
	tracedDeref
	batch core.BatchDereferencer
}

func (d tracedBatchDeref) DerefBatch(tc *core.TaskCtx, ptrs []lake.Pointer) ([][]lake.Record, error) {
	c, acc := child(tc)
	t0 := time.Now()
	out, err := d.batch.DerefBatch(c, ptrs)
	d.spans.stage(time.Since(t0) - time.Duration(acc.Load()))
	return out, err
}

type tracedRef struct {
	inner core.Referencer
	spans *layerSpans
}

func (r tracedRef) Name() string { return r.inner.Name() }

func (r tracedRef) Ref(tc *core.TaskCtx, rec lake.Record) ([]lake.Pointer, error) {
	t0 := time.Now()
	ptrs, err := r.inner.Ref(tc, rec)
	r.spans.stage(time.Since(t0))
	return ptrs, err
}
