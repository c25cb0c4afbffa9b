// Package chaos compiles seeded, deterministic fault schedules and arms
// them against a simulated dfs cluster.
//
// The design follows deterministic simulation testing (FoundationDB and its
// Record Layer): every run is driven by a single int64 seed, the seed fully
// determines the fault schedule — which partitions fail, how many accesses
// each fault survives, which nodes get latency brownouts, spikes, or
// queue-depth squeezes — and a failure anywhere reproduces by re-running the
// same seed. The schedule's faults are all *healable*: transient partition
// faults carry an access budget (consumed per key, see dfs), and latency
// events only slow I/O down, so a correct executor configured with enough
// retries must still produce exactly the right answer under any schedule.
// The differential oracle (internal/oracle) is the consumer: it runs the
// same job with and without a schedule armed and diffs the results.
//
// A Schedule arms through public hooks only, on the storage path every
// access takes: dfs.Cluster.SetTransientFault arms faults in the sim node
// owning the partition, and that node's gate (dfs.Cluster.NodeGate) takes
// latency events (sim.Gate.SetDelayHook) and queue squeezes
// (sim.Gate.Hold). Clusters over other transports reject faults; wrap
// their transports instead (WrapTransport).
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lakeharbor/internal/dfs"
)

// ErrInjected is the root of every fault error a schedule injects. It is
// deliberately NOT permanent (lake.AsPermanent): injected faults model flaky
// disks and brief partitions, which the executor's retry path must heal.
var ErrInjected = errors.New("chaos: injected transient fault")

// Target describes the cluster surface a schedule is compiled against. The
// order of Files is part of the schedule's identity: compilation draws
// random numbers in Target iteration order, so the same seed against the
// same target always yields the same schedule.
type Target struct {
	// Nodes is the cluster size.
	Nodes int
	// Files lists the files (and their partition counts) eligible for
	// partition faults.
	Files []FileInfo
}

// FileInfo names one faultable file.
type FileInfo struct {
	Name       string
	Partitions int
}

// Profile tunes schedule density. The zero value selects DefaultProfile.
type Profile struct {
	// FaultProb is the per-(file, partition) probability of a transient
	// fault.
	FaultProb float64
	// MaxHeals caps one fault's heal budget (accesses that fail before the
	// fault heals). The oracle sizes Options.MaxRetries from the schedule's
	// TotalHeals, so the cap bounds how patient the executor must be.
	MaxHeals int
	// BrownoutProb is the per-node probability of a latency brownout
	// window (a sustained multiplier over a span of accesses).
	BrownoutProb float64
	// SpikeProb is the per-node probability of a latency spike (a large
	// additive delay over a few accesses).
	SpikeProb float64
	// MaxSpike caps a spike's added latency.
	MaxSpike time.Duration
	// SqueezeProb is the per-node probability of a queue-depth squeeze
	// (admission slots held for the whole armed window).
	SqueezeProb float64
}

// DefaultProfile returns the density used by the oracle and chaosbench:
// roughly one fault per few partitions and one latency event per few nodes,
// spiky enough to shuffle interleavings without making runs crawl.
func DefaultProfile() Profile {
	return Profile{
		FaultProb:    0.35,
		MaxHeals:     3,
		BrownoutProb: 0.4,
		SpikeProb:    0.4,
		MaxSpike:     500 * time.Microsecond,
		SqueezeProb:  0.3,
	}
}

// Fault is one transient partition fault: the partition's next Heals key
// accesses fail with ErrInjected, then the fault heals itself.
type Fault struct {
	File      string
	Partition int
	Heals     int
}

// Delay is one latency event on a node: I/Os numbered [FromCall, ToCall]
// (1-based, counted per node) have their modeled service time multiplied by
// Factor (when > 0) and then increased by Add. A long window with a small
// factor is a brownout; a short window with a large Add is a spike.
type Delay struct {
	Node     int
	FromCall int64
	ToCall   int64
	Factor   float64
	Add      time.Duration
}

// Squeeze holds Slots of a node's admission queue for the whole armed
// window, shrinking the concurrency its storage path can absorb.
type Squeeze struct {
	Node  int
	Slots int
}

// Schedule is a compiled, seed-determined set of chaos events.
type Schedule struct {
	Seed     int64
	Faults   []Fault
	Delays   []Delay
	Squeezes []Squeeze
}

// Compile derives the schedule for seed against the target. It is a pure
// function: same seed, same target, same profile → identical schedule.
func Compile(seed int64, tgt Target, prof Profile) *Schedule {
	if prof == (Profile{}) {
		prof = DefaultProfile()
	}
	if prof.MaxHeals <= 0 {
		prof.MaxHeals = DefaultProfile().MaxHeals
	}
	if prof.MaxSpike <= 0 {
		prof.MaxSpike = DefaultProfile().MaxSpike
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed}
	for _, f := range tgt.Files {
		for p := 0; p < f.Partitions; p++ {
			if rng.Float64() < prof.FaultProb {
				s.Faults = append(s.Faults, Fault{
					File:      f.Name,
					Partition: p,
					Heals:     1 + rng.Intn(prof.MaxHeals),
				})
			}
		}
	}
	for n := 0; n < tgt.Nodes; n++ {
		if rng.Float64() < prof.BrownoutProb {
			from := 1 + rng.Int63n(50)
			s.Delays = append(s.Delays, Delay{
				Node:     n,
				FromCall: from,
				ToCall:   from + 10 + rng.Int63n(90),
				Factor:   2 + 8*rng.Float64(),
			})
		}
		if rng.Float64() < prof.SpikeProb {
			from := 1 + rng.Int63n(100)
			s.Delays = append(s.Delays, Delay{
				Node:     n,
				FromCall: from,
				ToCall:   from + rng.Int63n(3),
				Factor:   1,
				Add:      time.Duration(rng.Int63n(int64(prof.MaxSpike))) + time.Microsecond,
			})
		}
		if rng.Float64() < prof.SqueezeProb {
			s.Squeezes = append(s.Squeezes, Squeeze{Node: n, Slots: 1 + rng.Intn(8)})
		}
	}
	return s
}

// Events reports how many events the schedule carries.
func (s *Schedule) Events() int {
	return len(s.Faults) + len(s.Delays) + len(s.Squeezes)
}

// TotalHeals sums every fault's heal budget. An executor running with
// Options.MaxRetries >= TotalHeals is guaranteed to out-wait the schedule:
// even if one unlucky invocation absorbs every injected failure, it still
// has a retry left for the healed attempt.
func (s *Schedule) TotalHeals() int {
	total := 0
	for _, f := range s.Faults {
		total += f.Heals
	}
	return total
}

// String renders the schedule compactly for repro logs.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos(seed=%d", s.Seed)
	for _, f := range s.Faults {
		fmt.Fprintf(&b, " fault:%s/%d×%d", f.File, f.Partition, f.Heals)
	}
	for _, d := range s.Delays {
		if d.Add > 0 {
			fmt.Fprintf(&b, " spike:n%d@%d-%d+%v", d.Node, d.FromCall, d.ToCall, d.Add)
		} else {
			fmt.Fprintf(&b, " brownout:n%d@%d-%d×%.1f", d.Node, d.FromCall, d.ToCall, d.Factor)
		}
	}
	for _, q := range s.Squeezes {
		fmt.Fprintf(&b, " squeeze:n%d-%d", q.Node, q.Slots)
	}
	b.WriteString(")")
	return b.String()
}

// Armed is a schedule installed on a cluster; Disarm restores the cluster.
type Armed struct {
	cluster  *dfs.Cluster
	schedule *Schedule
	releases []func()
	hooked   []int
	disarmed atomic.Bool
}

// Arm installs the schedule on the cluster: transient faults on partitions,
// delay hooks and held admission slots on node gates. Latency events and
// squeezes are skipped silently on a free-cost cluster (no gates — nothing
// to slow down), faults always apply. Arm fails if a fault names a file or
// partition the cluster does not have.
func (s *Schedule) Arm(c *dfs.Cluster) (*Armed, error) {
	a := &Armed{cluster: c, schedule: s}
	for _, f := range s.Faults {
		err := c.SetTransientFault(f.File, f.Partition,
			fmt.Errorf("%w: %s/%d", ErrInjected, f.File, f.Partition), f.Heals)
		if err != nil {
			a.Disarm()
			return nil, fmt.Errorf("chaos: arm fault %s/%d: %w", f.File, f.Partition, err)
		}
	}
	byNode := make(map[int][]Delay)
	for _, d := range s.Delays {
		byNode[d.Node] = append(byNode[d.Node], d)
	}
	// Install hooks in node order so arming is as deterministic as the
	// schedule itself.
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		g := c.NodeGate(n)
		if g == nil {
			continue
		}
		evs := byNode[n]
		var calls atomic.Int64
		g.SetDelayHook(func(d time.Duration) time.Duration {
			call := calls.Add(1)
			for _, ev := range evs {
				if call < ev.FromCall || call > ev.ToCall {
					continue
				}
				if ev.Factor > 0 {
					d = time.Duration(float64(d) * ev.Factor)
				}
				d += ev.Add
			}
			return d
		})
		a.hooked = append(a.hooked, n)
	}
	for _, q := range s.Squeezes {
		g := c.NodeGate(q.Node)
		if g == nil {
			continue
		}
		// Never hold the whole queue: a zero-slot gate would block every
		// I/O on the node forever — chaos must degrade service, not
		// deadlock it.
		slots := q.Slots
		if depth := c.Cost().QueueDepth; depth > 0 && slots > depth-1 {
			slots = depth - 1
		}
		if slots <= 0 {
			continue
		}
		_, release := g.Hold(slots)
		a.releases = append(a.releases, release)
	}
	return a, nil
}

// Disarm removes every installed event: pending transient faults are
// cleared, delay hooks uninstalled, held admission slots released. It is
// idempotent.
func (a *Armed) Disarm() {
	if !a.disarmed.CompareAndSwap(false, true) {
		return
	}
	for _, f := range a.schedule.Faults {
		// Ignore errors: a fault that failed to arm (or a file dropped by
		// the scenario) has nothing to clear.
		_ = a.cluster.SetFault(f.File, f.Partition, nil)
	}
	for _, n := range a.hooked {
		if g := a.cluster.NodeGate(n); g != nil {
			g.SetDelayHook(nil)
		}
	}
	for _, release := range a.releases {
		release()
	}
}
