package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor can hold back a vCPU for seconds at a
// time ("steal"), which slows every wall-clock measurement taken meanwhile
// by a third or more. The benchmark samples the kernel's steal counter for
// the whole run and, among the parts of a window (or the repeated
// set-ups), reports the ones taken while the CPU was actually available.

// calmSteal is the steal fraction up to which a measurement counts as
// undisturbed.
const calmSteal = 0.05

type stealSample struct {
	at           time.Time
	steal, total uint64
}

// stealSampler reads the machine's CPU steal and total time every period
// until close. Without a readable /proc/stat it records nothing, and every
// measurement counts as undisturbed.
type stealSampler struct {
	mu      sync.Mutex
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

func startSteal(period time.Duration) *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	if _, ok := readStat(); !ok {
		close(s.done)
		return s
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			if smp, ok := readStat(); ok {
				s.mu.Lock()
				s.samples = append(s.samples, smp)
				s.mu.Unlock()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// close stops sampling and waits for the sampler to exit.
func (s *stealSampler) close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// readStat reads the aggregate cpu line of /proc/stat.
func readStat() (stealSample, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealSample{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealSample{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealSample{}, false
	}
	smp := stealSample{at: time.Now()}
	for i, fv := range fields[1:9] { // user … steal; guest time is already in user
		v, err := strconv.ParseUint(fv, 10, 64)
		if err != nil {
			return stealSample{}, false
		}
		smp.total += v
		if i == 7 {
			smp.steal = v
		}
	}
	return smp, true
}

// frac returns the share of CPU time stolen between from and to, widened
// to the nearest samples around them; 0 when unknown.
func (s *stealSampler) frac(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) < 2 {
		return 0
	}
	i := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].at.After(from) }) - 1
	j := sort.Search(len(s.samples), func(j int) bool { return !s.samples[j].at.Before(to) })
	i = max(i, 0)
	j = min(j, len(s.samples)-1)
	if j <= i {
		return 0
	}
	a, b := s.samples[i], s.samples[j]
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// calm returns the indexes of the measurements to report: those taken with
// steal at most calmSteal, or, when fewer than a third of them qualify, the
// third with the least steal.
func calm(steal []float64) []int {
	var keep []int
	for i, st := range steal {
		if st <= calmSteal {
			keep = append(keep, i)
		}
	}
	need := int(math.Ceil(float64(len(steal)) / 3))
	if len(keep) >= need {
		return keep
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep = idx[:need]
	sort.Ints(keep)
	return keep
}
