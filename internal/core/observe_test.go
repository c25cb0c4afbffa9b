package core

import (
	"testing"

	"lakeharbor/internal/trace"
)

// TestLatencyHistogramsPopulated: every executed task must land exactly one
// observation in the task-latency and queue-wait histograms, every
// dereference task one in the batch-size histogram, and the simulated
// storage path must record I/O round-trips.
func TestLatencyHistogramsPopulated(t *testing.T) {
	fx := newFixture(t, 3, 12, 2)
	res, err := Execute(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	var tasks, batches int64
	for _, st := range tr.Stages {
		tasks += st.Tasks
		batches += st.Batches
	}
	if got := tr.Lat.Task.Count; got != tasks {
		t.Errorf("task latency observations = %d, want %d (one per task)", got, tasks)
	}
	if got := tr.Lat.QueueWait.Count; got != tasks {
		t.Errorf("queue wait observations = %d, want %d (one per task)", got, tasks)
	}
	if got := tr.Lat.Batch.Count; got != batches {
		t.Errorf("batch size observations = %d, want %d (one per deref task)", got, batches)
	}
	var localIO, remoteIO int64
	for _, n := range tr.Nodes {
		localIO += n.LocalIO
		remoteIO += n.RemoteIO
	}
	if got := tr.Lat.IOLocal.Count + tr.Lat.IORemote.Count; got != localIO+remoteIO {
		t.Errorf("I/O latency observations = %d, want %d (one per storage access)",
			got, localIO+remoteIO)
	}
	if tr.Lat.Task.Max <= 0 {
		t.Error("task latency max not positive")
	}
}

// TestTimelineCapturedByDefault: Execute records timeline events without
// any opt-in, and the log contains task and enqueue events for every stage.
func TestTimelineCapturedByDefault(t *testing.T) {
	fx := newFixture(t, 2, 8, 2)
	res, err := Execute(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if len(tr.Events) == 0 {
		t.Fatal("no timeline events captured by default")
	}
	var taskEvents int64
	kinds := map[trace.EventKind]int{}
	for _, ev := range tr.Events {
		kinds[ev.Kind]++
		if ev.Kind == trace.EvTask {
			taskEvents++
			if ev.Dur < 0 || ev.Wait < 0 {
				t.Fatalf("task event with negative duration or wait: %+v", ev)
			}
			if ev.Stage < 0 || ev.Stage >= len(tr.Stages) {
				t.Fatalf("task event with out-of-range stage: %+v", ev)
			}
		}
	}
	var tasks int64
	for _, st := range tr.Stages {
		tasks += st.Tasks
	}
	if tr.EventsDropped == 0 && taskEvents != tasks {
		t.Errorf("task events = %d, want %d (ring did not overflow)", taskEvents, tasks)
	}
	if kinds[trace.EvEnqueue] == 0 {
		t.Error("no enqueue events captured")
	}
	// The captured log must yield a critical path.
	if segs := trace.CriticalPath(tr.Events, 3); len(segs) == 0 {
		t.Error("critical path empty on a non-trivial job")
	}
	// Only a transport that crosses a wire (the nodenet client) marks rpc
	// intervals, so a sim cluster's timeline has none and its critical
	// path names no rpc phase. The net oracle arm checks the other side.
	if kinds[trace.EvRPC] != 0 {
		t.Errorf("sim-cluster job recorded %d rpc events, want 0", kinds[trace.EvRPC])
	}
	for _, seg := range trace.CriticalPath(tr.Events, 64) {
		if seg.Phase == "rpc" {
			t.Errorf("sim-cluster critical path has an rpc segment: %+v", seg)
		}
	}
}

// TestEventCapControls: EventCap < 0 disables capture entirely; a tiny
// positive cap bounds memory and reports the overflow.
func TestEventCapControls(t *testing.T) {
	fx := newFixture(t, 2, 10, 2)

	res, err := Execute(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, Options{EventCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Events) != 0 || res.Trace.EventsDropped != 0 {
		t.Fatalf("EventCap -1 still captured %d events (%d dropped)",
			len(res.Trace.Events), res.Trace.EventsDropped)
	}
	// Latency histograms stay on even with the timeline off.
	if res.Trace.Lat.Task.Count == 0 {
		t.Error("task latency histogram empty with timeline disabled")
	}

	res, err = Execute(fx.ctx, fx.joinJob(0, 1000, false), fx.cluster, fx.cluster, Options{EventCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Events) > 4 {
		t.Fatalf("EventCap 4 retained %d events", len(res.Trace.Events))
	}
	if res.Trace.EventsDropped == 0 {
		t.Error("tiny cap on a multi-stage job must report dropped events")
	}
}
