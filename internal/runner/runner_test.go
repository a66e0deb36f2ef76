package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// collatzLen is a tiny deterministic "simulation": the trial result
// depends only on its inputs, like a seeded kernel run.
func collatzLen(seed uint64, p int) int {
	n := seed + uint64(p)*17
	steps := 0
	for n > 1 {
		if n%2 == 0 {
			n /= 2
		} else {
			n = 3*n + 1
		}
		steps++
	}
	return steps
}

func testSweep(points, replicas int) Sweep[int, int] {
	pts := make([]int, points)
	for i := range pts {
		pts[i] = i * 3
	}
	return Sweep[int, int]{
		Name:     "test",
		Points:   pts,
		Replicas: replicas,
		Seed:     func(point, replica int) uint64 { return uint64(point)<<16 | uint64(replica) },
		Trial:    collatzLen,
	}
}

func TestRunShapeAndPlacement(t *testing.T) {
	sw := testSweep(5, 7)
	res := sw.Run(Config{Workers: Serial})
	if len(res) != 5 {
		t.Fatalf("points = %d", len(res))
	}
	for p, rs := range res {
		if len(rs) != 7 {
			t.Fatalf("point %d has %d replicas", p, len(rs))
		}
		for r, got := range rs {
			want := collatzLen(sw.Seed(p, r), sw.Points[p])
			if got != want {
				t.Fatalf("res[%d][%d] = %d, want %d", p, r, got, want)
			}
		}
	}
}

func TestRunDeterministicAcrossSchedules(t *testing.T) {
	sw := testSweep(8, 40)
	want := sw.Run(Config{Workers: Serial})
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 4},
		{Workers: 16},
	} {
		got := sw.Run(cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %+v changed results", cfg)
		}
	}
}

func TestRunProgressCountsEveryTrial(t *testing.T) {
	sw := testSweep(4, 9)
	var calls, last atomic.Int64
	sw.Run(Config{Workers: 4, Progress: func(name string, done, total int) {
		if name != "test" {
			t.Errorf("progress name = %q", name)
		}
		if total != 36 {
			t.Errorf("total = %d", total)
		}
		calls.Add(1)
		if int64(done) > last.Load() {
			last.Store(int64(done))
		}
	}})
	if calls.Load() != 36 {
		t.Fatalf("progress calls = %d, want 36 (one per trial at batch 1)", calls.Load())
	}
	if last.Load() != 36 {
		t.Fatalf("final done = %d", last.Load())
	}
}

func TestRunContextCancel(t *testing.T) {
	// A context canceled mid-sweep stops the replica loop: some trials
	// ran, the rest stayed at their zero value, and Run returned instead
	// of draining the whole cursor. The trial itself cancels after a
	// fixed number of completions so the test is schedule-independent.
	for _, workers := range []int{Serial, 1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		sw := testSweep(10, 20)
		trial := sw.Trial
		sw.Trial = func(seed uint64, p int) int {
			if ran.Add(1) == 5 {
				cancel()
			}
			return trial(seed, p)
		}
		res := sw.Run(Config{Workers: workers, Context: ctx})
		if len(res) != 10 || len(res[0]) != 20 {
			t.Fatalf("workers %d: result shape %dx%d", workers, len(res), len(res[0]))
		}
		got := int(ran.Load())
		if got >= 200 {
			t.Fatalf("workers %d: cancellation did not stop the sweep (%d trials ran)", workers, got)
		}
		if got < 5 {
			t.Fatalf("workers %d: only %d trials ran before cancel", workers, got)
		}
		cancel()
	}

	// A pre-canceled context runs nothing at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	sw := testSweep(3, 3)
	sw.Trial = func(seed uint64, p int) int { ran.Add(1); return 0 }
	sw.Run(Config{Workers: Serial, Context: ctx})
	if ran.Load() != 0 {
		t.Fatalf("pre-canceled context ran %d trials", ran.Load())
	}
}

// TestRunRecoversTrialPanic: a panicking replica inside the worker pool
// must not crash the process. Run stops claiming trials and re-panics
// on the caller's goroutine with a *TrialPanic that names the replica
// and carries its seed, so one bad replica fails one job.
func TestRunRecoversTrialPanic(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{Serial, 2, 4} {
		const points, replicas = 8, 8
		const badPoint, badReplica = 0, 1
		var ran atomic.Int64
		sw := testSweep(points, replicas)
		badSeed := sw.Seed(badPoint, badReplica)
		sw.Trial = func(seed uint64, p int) int {
			ran.Add(1)
			if seed == badSeed {
				panic(boom)
			}
			// Slow enough that the panic is recorded long before the
			// pool could drain the cursor.
			time.Sleep(time.Millisecond)
			return collatzLen(seed, p)
		}
		func() {
			defer func() {
				tp, ok := recover().(*TrialPanic)
				if !ok {
					t.Fatalf("workers %d: Run did not re-panic with a *TrialPanic", workers)
				}
				if tp.Point != badPoint || tp.Replica != badReplica || tp.Seed != badSeed {
					t.Fatalf("workers %d: TrialPanic names point %d replica %d seed %d, want %d/%d/%d",
						workers, tp.Point, tp.Replica, tp.Seed, badPoint, badReplica, badSeed)
				}
				if tp.Value != boom || len(tp.Stack) == 0 {
					t.Fatalf("workers %d: TrialPanic lost the value or stack: %v", workers, tp)
				}
				if !strings.Contains(tp.Error(), fmt.Sprint(badSeed)) {
					t.Fatalf("workers %d: message %q omits the seed", workers, tp.Error())
				}
			}()
			sw.Run(Config{Workers: workers})
			t.Fatalf("workers %d: Run returned normally", workers)
		}()
		if got := ran.Load(); got >= points*replicas {
			t.Fatalf("workers %d: the panic did not stop the sweep (%d trials ran)", workers, got)
		}
		if workers == Serial && ran.Load() != 2 {
			t.Fatalf("serial run ran %d trials, want exactly 2", ran.Load())
		}
	}
}

func TestRunEmptyAndDegenerate(t *testing.T) {
	sw := testSweep(0, 5)
	if res := sw.Run(Config{}); len(res) != 0 {
		t.Fatalf("empty sweep returned %d points", len(res))
	}
	// Replicas < 1 is clamped to one replica.
	sw = testSweep(2, 0)
	res := sw.Run(Config{})
	if len(res) != 2 || len(res[0]) != 1 {
		t.Fatalf("degenerate sweep shape: %d points, %d replicas", len(res), len(res[0]))
	}
}

func TestDefaultSeedIsPerTrialUnique(t *testing.T) {
	sw := Sweep[int, uint64]{
		Points:   []int{0, 1, 2},
		Replicas: 50,
		Trial:    func(seed uint64, _ int) uint64 { return seed },
	}
	res := sw.Run(Config{Workers: 2})
	seen := make(map[uint64]bool)
	for _, rs := range res {
		for _, s := range rs {
			if seen[s] {
				t.Fatalf("duplicate default seed %d", s)
			}
			seen[s] = true
		}
	}
}

func TestFlattenAndCross(t *testing.T) {
	got := Flatten([][]int{{1, 9}, {2}, {3}})
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Flatten = %v", got)
	}
	pairs := Cross([]string{"a", "b"}, []int{1, 2, 3})
	if len(pairs) != 6 || pairs[0] != (Pair[string, int]{"a", 1}) || pairs[5] != (Pair[string, int]{"b", 3}) {
		t.Fatalf("Cross = %v", pairs)
	}
}

func TestReducePoints(t *testing.T) {
	sw := testSweep(3, 5)
	res := sw.Run(Config{Workers: 2})
	sums := ReducePoints(sw.Points, res, func(p int, rs []int) string {
		total := 0
		for _, r := range rs {
			total += r
		}
		return fmt.Sprintf("%d:%d", p, total)
	})
	if len(sums) != 3 {
		t.Fatalf("sums = %v", sums)
	}
	for i, s := range sums {
		want := 0
		for r := 0; r < 5; r++ {
			want += collatzLen(sw.Seed(i, r), sw.Points[i])
		}
		if s != fmt.Sprintf("%d:%d", sw.Points[i], want) {
			t.Fatalf("sums[%d] = %q", i, s)
		}
	}
}

// fakeCk stands in for a settled checkpoint: what Prepare saw.
type fakeCk struct {
	point int
	seed  uint64
}

type forkResult struct {
	ck       *fakeCk
	forkSeed uint64
	p        int
}

func testForkSweep(points, replicas int, prepared *[]int) ForkSweep[int, *fakeCk, forkResult] {
	pts := make([]int, points)
	for i := range pts {
		pts[i] = i * 5
	}
	return ForkSweep[int, *fakeCk, forkResult]{
		Name:     "fork",
		Points:   pts,
		Replicas: replicas,
		Seed:     func(point, replica int) uint64 { return uint64(point)<<16 | uint64(replica) + 1 },
		Prepare: func(seed uint64, p int) (*fakeCk, error) {
			*prepared = append(*prepared, p)
			return &fakeCk{point: p, seed: seed}, nil
		},
		Trial: func(ck *fakeCk, forkSeed uint64, p int) forkResult {
			return forkResult{ck, forkSeed, p}
		},
	}
}

// TestForkSweepPrepareOnceThenFork pins ForkSweep's contract at every
// pool width: Prepare runs once per point, in point order, under the
// point's replica-0 seed; every replica of a point gets that point's
// one capture; replica 0 forks with seed 0 and replica r >= 1 with
// Seed(point, r). Runs under -race in CI, so the shared capture is
// also checked for unsynchronized access.
func TestForkSweepPrepareOnceThenFork(t *testing.T) {
	for _, workers := range []int{Serial, 1, 4} {
		var prepared []int
		fs := testForkSweep(3, 6, &prepared)
		res, err := fs.Run(Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(prepared, fs.Points) {
			t.Fatalf("workers %d: Prepare ran for %v, want once per point in order %v", workers, prepared, fs.Points)
		}
		if len(res) != 3 {
			t.Fatalf("workers %d: %d result rows", workers, len(res))
		}
		for i, row := range res {
			if len(row) != 6 {
				t.Fatalf("workers %d: point %d has %d replicas", workers, i, len(row))
			}
			for r, got := range row {
				if got.ck != row[0].ck || got.ck.point != fs.Points[i] || got.ck.seed != fs.Seed(i, 0) {
					t.Fatalf("workers %d: point %d replica %d forked from %+v", workers, i, r, *got.ck)
				}
				want := uint64(0)
				if r > 0 {
					want = fs.Seed(i, r)
				}
				if got.forkSeed != want || got.p != fs.Points[i] {
					t.Fatalf("workers %d: point %d replica %d got fork seed %d point %d, want %d and %d",
						workers, i, r, got.forkSeed, got.p, want, fs.Points[i])
				}
			}
		}
	}
}

// TestForkSweepPrepareErrorAborts: the first Prepare error is returned
// before any trial runs, and no later point is prepared.
func TestForkSweepPrepareErrorAborts(t *testing.T) {
	var prepared []int
	fs := testForkSweep(3, 4, &prepared)
	boom := errors.New("settle failed")
	prepare := fs.Prepare
	fs.Prepare = func(seed uint64, p int) (*fakeCk, error) {
		if p == fs.Points[1] {
			return nil, boom
		}
		return prepare(seed, p)
	}
	var trials atomic.Int64
	fs.Trial = func(*fakeCk, uint64, int) forkResult { trials.Add(1); return forkResult{} }
	res, err := fs.Run(Config{Workers: 2})
	if !errors.Is(err, boom) || res != nil {
		t.Fatalf("Run = %v, %v; want nil, %v", res, err, boom)
	}
	if n := trials.Load(); n != 0 {
		t.Fatalf("%d trials ran after a Prepare error", n)
	}
	if !reflect.DeepEqual(prepared, fs.Points[:1]) {
		t.Fatalf("prepared %v, want only %v", prepared, fs.Points[:1])
	}
}

// TestForkSweepContextCancel: a context canceled before or during the
// prepare phase returns ctx.Err(), prepares no further point and runs
// no trial.
func TestForkSweepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var prepared []int
	fs := testForkSweep(3, 4, &prepared)
	var trials atomic.Int64
	fs.Trial = func(*fakeCk, uint64, int) forkResult { trials.Add(1); return forkResult{} }
	if _, err := fs.Run(Config{Workers: 2, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: Run error %v, want %v", err, context.Canceled)
	}
	if len(prepared) != 0 || trials.Load() != 0 {
		t.Fatalf("pre-canceled: %d prepares and %d trials ran", len(prepared), trials.Load())
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	prepare := fs.Prepare
	fs.Prepare = func(seed uint64, p int) (*fakeCk, error) {
		cancel()
		return prepare(seed, p)
	}
	if _, err := fs.Run(Config{Workers: 2, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled in Prepare: Run error %v, want %v", err, context.Canceled)
	}
	if !reflect.DeepEqual(prepared, fs.Points[:1]) || trials.Load() != 0 {
		t.Fatalf("canceled in Prepare: prepared %v and ran %d trials, want %v and none", prepared, trials.Load(), fs.Points[:1])
	}
}
