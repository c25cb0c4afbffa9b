package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, untraced and traced, with all of
// its output checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if code := runSmoke(t.TempDir()); code != 0 {
		t.Fatalf("smoke run failed (exit code %d); see the output above", code)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names, units, and
// directions the benchmark prints in step with BENCHMARK.json, and checks
// that every workload it lists exists.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		found := false
		for _, have := range workloads {
			found = found || have.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	l := newOpLog()
	for i := 0; i < 300; i++ {
		var err error
		if i%10 == 0 {
			err = os.ErrDeadlineExceeded // 10% fail: p95 lands on a failure
		}
		l.add(l.start.Add(time.Duration(i)*time.Millisecond), time.Millisecond, err)
	}
	window := 300 * time.Millisecond
	sum := l.summarize(window, &stealSampler{}, 0.5, 0.95)
	if len(sum.partQPS) != 2 {
		t.Fatalf("parts = %d, want 2", len(sum.partQPS))
	}
	if want := 135 / (window / 2).Seconds(); math.Abs(sum.qps-want) > 1e-9 {
		t.Errorf("qps = %v, want %v", sum.qps, want)
	}
	if sum.lat[0] != 1 {
		t.Errorf("p50 = %v ms, want 1", sum.lat[0])
	}
	if want := ms(window); sum.lat[1] != want {
		t.Errorf("p95 = %v ms, want the window length %v", sum.lat[1], want)
	}
}

func TestUnionLen(t *testing.T) {
	got := unionLen([]interval{{10, 20}, {0, 5}, {15, 30}, {40, 41}})
	if got != 5+20+1 {
		t.Errorf("unionLen = %d, want 26", got)
	}
}

func TestCalmKeepsAtLeastAThird(t *testing.T) {
	if got := calm([]float64{0.3, 0.01, 0.2, 0.02, 0.4, 0.5}); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("calm = %v, want [1 3]", got)
	}
	if got := calm([]float64{0.3, 0.2, 0.4}); len(got) != 1 || got[0] != 1 {
		t.Errorf("calm = %v, want [1]", got)
	}
}
