// Package runner is the declarative trial engine behind the experiments
// layer. The paper's evaluation is embarrassingly parallel — every data
// point is an independent (parameter, seed) replica of a deterministic
// simulation — so a Sweep describes the axes (parameter points, replica
// count, seed derivation) plus a Trial function, and the engine fans the
// replicas out across a worker pool.
//
// Determinism is the contract: a Trial must build its own simulation
// world (its own sim.Kernel) from nothing but the seed and the parameter
// point, so results depend only on (point, replica) and never on the
// execution schedule. The engine stores each result at its (point,
// replica) index, which makes serial, single-worker and N-worker runs
// produce byte-identical tables.
//
// A panicking trial never takes down a pool goroutine: Run recovers it,
// stops claiming further trials and re-panics on the caller's goroutine
// with a *TrialPanic naming the replica and its seed.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Serial is the Workers value that runs every trial inline on the
// calling goroutine, with no pool at all.
const Serial = -1

// Config controls how a sweep is executed. The zero value runs a
// GOMAXPROCS-wide pool with no progress reporting.
type Config struct {
	// Workers is the pool size: 0 uses GOMAXPROCS, Serial (-1) runs
	// inline on the calling goroutine, n >= 1 spawns exactly n workers.
	Workers int
	// Progress, when non-nil, is called with the completed and total
	// trial counts after every batch, from whichever worker finished it.
	Progress func(name string, done, total int)
	// Context, when non-nil, cancels the replica loop: once it is done,
	// no further trial starts (in-flight trials finish their current
	// batch entry) and Run returns with the unreached results left at
	// their zero values. Callers that care whether the sweep completed
	// check Context.Err() — a canceled run's results are partial by
	// construction and must not be reported as a campaign.
	Context context.Context
}

// Sweep describes one embarrassingly parallel experiment: Replicas
// independent trials at each point of Points.
type Sweep[P, R any] struct {
	// Name labels the sweep in progress reports.
	Name string
	// Points are the parameter axis (BER points, Tsniff values, config
	// variants — anything the Trial understands).
	Points []P
	// Replicas is the number of independent trials per point (>= 1).
	Replicas int
	// Seed derives the trial seed from the point and replica indices.
	// Nil uses uint64(replica)*1_000_003 + uint64(point) + 1. The seed,
	// not the schedule, must be the only source of randomness.
	Seed func(point, replica int) uint64
	// Trial runs one replica and returns its result. It must be pure up
	// to the seed: no shared mutable state, its own simulation world.
	Trial func(seed uint64, p P) R
}

// TrialPanic is the value Run re-panics with when a trial panics. It
// names the replica and the seed that reproduce the failure, and
// carries the recovered value and the panicking goroutine's stack.
type TrialPanic struct {
	Point, Replica int
	Seed           uint64
	Value          any
	Stack          []byte
}

func (p *TrialPanic) Error() string {
	return fmt.Sprintf("runner: trial at point %d, replica %d (seed %d) panicked: %v",
		p.Point, p.Replica, p.Seed, p.Value)
}

// Run executes the sweep under cfg and returns the results indexed as
// [point][replica]. The indexing — not completion order — defines the
// layout, so any worker count yields identical output.
//
// If a trial panics, no further trial starts, Run waits for the
// in-flight ones and then panics on the calling goroutine with a
// *TrialPanic for the first recorded failure.
func (s Sweep[P, R]) Run(cfg Config) [][]R {
	if s.Trial == nil {
		panic("runner: Sweep.Trial is nil")
	}
	replicas := s.Replicas
	if replicas < 1 {
		replicas = 1
	}
	seedOf := s.Seed
	if seedOf == nil {
		seedOf = func(point, replica int) uint64 {
			return uint64(replica)*1_000_003 + uint64(point) + 1
		}
	}
	results := make([][]R, len(s.Points))
	for i := range results {
		results[i] = make([]R, replicas)
	}
	total := len(s.Points) * replicas
	if total == 0 {
		return results
	}

	var done atomic.Int64
	report := func(n int) {
		if cfg.Progress == nil {
			return
		}
		cfg.Progress(s.Name, int(done.Add(int64(n))), total)
	}

	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= Serial {
		workers = Serial
	}

	// One flat trial index per (point, replica); a job is a batch of
	// consecutive indices claimed with an atomic cursor, sized so each
	// worker claims the cursor a handful of times: per-replica jobs make
	// very short trials pay an atomic round-trip and a shared cache-line
	// write into the results rows for every replica, which is measurable
	// contention at micro-trial rates. Batching by consecutive indices
	// also keeps each results row written by one worker. The (point,
	// replica) indexing is untouched, so the output is identical.
	batch := 1
	if workers > 0 && total > workers*8 {
		batch = total / (workers * 8)
	}
	// Cancellation gates the replica loop itself: every batch claim —
	// serial or pooled — re-checks the context, so a canceled campaign
	// stops within one trial rather than one batch row. Trials that
	// want to stop mid-replica additionally watch the same context from
	// inside their Trial closure (the service layer runs its simulation
	// horizon in slot chunks for exactly this).
	// A panicking trial stops the loop the same way: the first one is
	// recorded and every later claim sees it.
	var failed atomic.Pointer[TrialPanic]
	stopped := func() bool {
		return failed.Load() != nil || (cfg.Context != nil && cfg.Context.Err() != nil)
	}
	trial := func(point, replica int) {
		seed := seedOf(point, replica)
		defer func() {
			if v := recover(); v != nil {
				failed.CompareAndSwap(nil, &TrialPanic{
					Point: point, Replica: replica, Seed: seed, Value: v, Stack: debug.Stack(),
				})
			}
		}()
		results[point][replica] = s.Trial(seed, s.Points[point])
	}
	runRange := func(start, end int) {
		for j := start; j < end; j++ {
			if stopped() {
				return
			}
			trial(j/replicas, j%replicas)
		}
		report(end - start)
	}
	rethrow := func() {
		if p := failed.Load(); p != nil {
			panic(p)
		}
	}

	if workers == Serial {
		for start := 0; start < total && !stopped(); start += batch {
			runRange(start, min(start+batch, total))
		}
		rethrow()
		return results
	}
	if max := (total + batch - 1) / batch; workers > max {
		workers = max
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(cursor.Add(int64(batch))) - batch
				if start >= total || stopped() {
					return
				}
				runRange(start, min(start+batch, total))
			}
		}()
	}
	wg.Wait()
	rethrow()
	return results
}

// ForkSweep is a Sweep whose replicas fork from one per-point
// checkpoint instead of each settling its own world. Prepare runs once
// per point, serially and in point order (it typically builds a world,
// runs the settle horizon and snapshots it); the replicas then restore
// from that one capture in parallel, each under its own fork seed, so
// Trial must only read it. Replica 0 forks with seed 0 — byte-identical
// to the straight continuation of the settled world — and every later
// replica perturbs the arm's RNG streams with its sweep-derived seed.
type ForkSweep[P, C, R any] struct {
	// Name labels the sweep in progress reports.
	Name string
	// Points are the parameter axis.
	Points []P
	// Replicas is the number of forks per point (>= 1).
	Replicas int
	// Seed derives the settle seed (replica 0) and the fork seeds
	// (replicas >= 1) like Sweep.Seed. Nil uses the same default.
	Seed func(point, replica int) uint64
	// Prepare settles one world for p under the point's base seed and
	// returns its checkpoint.
	Prepare func(seed uint64, p P) (C, error)
	// Trial restores one replica from the point's checkpoint under
	// forkSeed (0 = resume the captured streams exactly) and measures.
	Trial func(ck C, forkSeed uint64, p P) R
}

// Run executes the fork sweep under cfg: every point's Prepare first,
// then the replica fan-out with the same (point, replica) result
// layout as Sweep.Run. A Prepare error, or a context found canceled
// before a Prepare, aborts before any trial runs and is returned.
func (s ForkSweep[P, C, R]) Run(cfg Config) ([][]R, error) {
	if s.Prepare == nil || s.Trial == nil {
		panic("runner: ForkSweep needs Prepare and Trial")
	}
	seedOf := s.Seed
	if seedOf == nil {
		seedOf = func(point, replica int) uint64 {
			return uint64(replica)*1_000_003 + uint64(point) + 1
		}
	}
	cks := make([]C, len(s.Points))
	for i, p := range s.Points {
		if cfg.Context != nil && cfg.Context.Err() != nil {
			return nil, cfg.Context.Err()
		}
		ck, err := s.Prepare(seedOf(i, 0), p)
		if err != nil {
			return nil, err
		}
		cks[i] = ck
	}
	idx := make([]int, len(s.Points))
	for i := range idx {
		idx[i] = i
	}
	inner := Sweep[int, R]{
		Name:     s.Name,
		Points:   idx,
		Replicas: s.Replicas,
		Seed: func(point, replica int) uint64 {
			if replica == 0 {
				return 0 // replica 0 resumes the settled streams exactly
			}
			return seedOf(point, replica)
		},
		Trial: func(seed uint64, pi int) R {
			return s.Trial(cks[pi], seed, s.Points[pi])
		},
	}
	return inner.Run(cfg), nil
}

// ReducePoints folds the replica results of each point — in replica
// order, so reductions built on order-sensitive accumulators stay
// deterministic — into one output row per point.
func ReducePoints[P, R, Out any](points []P, results [][]R, reduce func(p P, rs []R) Out) []Out {
	out := make([]Out, len(points))
	for i, p := range points {
		out[i] = reduce(p, results[i])
	}
	return out
}

// Flatten returns the first replica of every point — the result shape
// of single-replica sweeps, where each point is one measurement.
func Flatten[R any](results [][]R) []R {
	out := make([]R, len(results))
	for i, rs := range results {
		out[i] = rs[0]
	}
	return out
}

// Pair is one cell of a two-axis sweep.
type Pair[A, B any] struct {
	A A
	B B
}

// Cross returns the row-major cross product of two axes, the point set
// for sweeps over e.g. (packet type, BER).
func Cross[A, B any](as []A, bs []B) []Pair[A, B] {
	out := make([]Pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, Pair[A, B]{a, b})
		}
	}
	return out
}
