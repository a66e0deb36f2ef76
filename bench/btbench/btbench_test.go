package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of nothing is not NaN")
	}
}

// TestFastestBlock pins how a run's op_ms is formed: the smallest
// per-block time, so slow blocks (another tenant's load) do not move it,
// and the median the runs are compared by.
func TestFastestBlock(t *testing.T) {
	perBlock := []float64{0.31, 0.29, 2.5, 0.30}
	if got := fastest(perBlock); got != 0.29 {
		t.Errorf("fastest = %g, want 0.29", got)
	}
	if got := median(perBlock); math.Abs(got-0.305) > 1e-12 {
		t.Errorf("median = %g, want 0.305", got)
	}
	if got := fastest([]float64{7}); got != 7 {
		t.Errorf("fastest of one block = %g", got)
	}
}

// TestQuartilesMatchPython checks quartiles against
// statistics.quantiles(xs, n=4) of Python 3, the definition the
// repeatability spreads are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1.5, 2.5, 10, 3, 7, 8, 9, 4, 6, 5}, [3]float64{2.875, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestMergeIntervals(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {5, 15}}, 15},            // overlap
		{[][2]int64{{20, 30}, {0, 10}}, 20},           // disjoint, unsorted
		{[][2]int64{{0, 10}, {2, 4}, {10, 12}}, 12},   // nested and touching
		{[][2]int64{{0, 5}, {6, 8}, {7, 20}}, 5 + 14}, // gap then overlap
	} {
		if got := mergeIntervals(c.iv); got != c.want {
			t.Errorf("mergeIntervals(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// TestSelfTimes: a span's self time is its duration minus the union of
// its children's intervals, so children that overlap (trials on two
// workers) are not subtracted twice.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "runner.block", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "runner.trial", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "runner.trial", Start: 40, End: 90},
		{ID: 4, Parent: 2, Name: "core.run", Start: 20, End: 50},
		{ID: 5, Parent: 3, Name: "core.run", Start: 40, End: 90},
	}
	got := make(map[string]selfTime)
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	want := map[string]struct {
		count int
		self  time.Duration
	}{
		"runner.block": {1, 20}, // 100 minus the union [10, 90)
		"runner.trial": {2, 20}, // (50-30) + (50-50)
		"core.run":     {2, 80},
	}
	for name, w := range want {
		if g := got[name]; g.Count != w.count || g.Self != w.self {
			t.Errorf("%s: count %d self %d, want %d and %d", name, g.Count, g.Self, w.count, w.self)
		}
	}
}

// TestPlannerMix pins the service's job mix: every block holds two
// fresh campaigns, one fork and one repeat per four jobs, except the
// first, which has nothing to repeat; every repeat re-sends a fresh
// campaign of the block before; and one seed always plans the same jobs.
func TestPlannerMix(t *testing.T) {
	spec, err := serviceSpec()
	if err != nil {
		t.Fatal(err)
	}
	pool := []uint64{101, 102, 103, 104}
	plan := func(seed uint64) [][]jobPlan {
		p := newPlanner(&spec, seed, pool)
		return [][]jobPlan{p.block(blockJobs), p.block(blockJobs), p.block(blockJobs)}
	}
	blocks := plan(9)
	for b, ps := range blocks {
		var n [3]int
		prev := make(map[string]bool)
		if b > 0 {
			for _, q := range blocks[b-1] {
				if q.kind == freshJob {
					prev[string(q.body)] = true
				}
			}
		}
		for _, p := range ps {
			n[p.kind]++
			if p.kind == repeatJob && !prev[string(p.body)] {
				t.Errorf("block %d: a repeat is not a fresh campaign of the block before", b)
			}
		}
		want := [3]int{blockJobs / 2, blockJobs / 4, blockJobs / 4}
		if b == 0 {
			want = [3]int{3 * blockJobs / 4, blockJobs / 4, 0}
		}
		if n != want {
			t.Errorf("block %d: fresh/fork/repeat %v, want %v", b, n, want)
		}
	}
	again := plan(9)
	for b := range blocks {
		for i := range blocks[b] {
			if string(blocks[b][i].body) != string(again[b][i].body) {
				t.Fatalf("seed 9 planned job %d of block %d differently twice", i, b)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, btbench %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, btbench %q", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, btbench reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], btbench %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestQuickWorkloads runs every workload at tiny sizes with tracing on,
// so an API change in the simulator that breaks the benchmark, or a
// change of its simulated outputs, fails the test: each run must pass
// its canary digest and re-checks and report every per-layer metric.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations for several seconds")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			out, err := measure(config{workload: w, seed: 7, trace: true, quick: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.Attempted, out.Failed, out.Problems)
			}
			for _, d := range perLayer {
				if d.name == "runtime.max_rss_mb" {
					continue // measured by the parent process
				}
				v, ok := out.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (reported %v)", d.name, v, ok)
				}
			}
		})
	}
}
