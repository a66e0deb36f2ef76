package simd

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
)

// tinySpec is a cheap but non-trivial world: one piconet, one slave,
// a saturating bulk pump. Every engine test that doesn't care about
// the world's contents uses it.
func tinySpec() netspec.Spec {
	return netspec.Spec{
		Piconets: []netspec.Piconet{{Slaves: 1}},
		Traffic:  []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
	}
}

// tinyReq is a campaign over tinySpec that completes in well under a
// second. vary perturbs the seed range so distinct calls miss the cache.
func tinyReq(vary uint64) Request {
	spec := tinySpec()
	return Request{
		Spec:  &spec,
		Seeds: SeedRange{First: 1 + vary, Count: 2},
		Slots: 2000,
	}
}

// blockerReq is a campaign long enough to hold a runner slot until the
// test cancels it (cancellation lands at the next 4096-slot chunk).
func blockerReq() Request {
	spec := tinySpec()
	return Request{
		Spec:  &spec,
		Seeds: SeedRange{First: 900, Count: 1},
		Slots: 5_000_000,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitState(t *testing.T, job *Job, want State) {
	t.Helper()
	waitFor(t, string("job state "+want), func() bool { return job.State() == want })
}

func TestEngineJobLifecycle(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial})
	defer e.Close()

	job, err := e.Submit(tinyReq(0))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.ID == "" {
		t.Fatal("job has no ID")
	}
	waitState(t, job, StateDone)

	st := job.Status()
	if st.Cached {
		t.Fatal("first submission reported a cache hit")
	}
	if st.Done != st.Total || st.Total != 2 {
		t.Fatalf("progress %d/%d, want 2/2", st.Done, st.Total)
	}
	if st.Result == nil || len(st.Result.Points) != 1 || len(st.Result.Points[0].Replicas) != 2 {
		t.Fatalf("result shape wrong: %+v", st.Result)
	}
	if st.Result.Points[0].SpecHash == "" {
		t.Fatal("point carries no spec hash")
	}
	if got, ok := e.Job(job.ID); !ok || got != job {
		t.Fatal("job table lookup failed")
	}
}

func TestEngineCacheHitAndEviction(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial, CacheSize: 1})
	defer e.Close()

	first, err := e.Submit(tinyReq(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateDone)

	// Same request again: an instant done job flagged cached, sharing
	// the result, and a hit on the counters.
	again, err := e.Submit(tinyReq(0))
	if err != nil {
		t.Fatal(err)
	}
	if again.State() != StateDone || !again.Status().Cached {
		t.Fatalf("resubmission state %s cached=%v, want instant cached done", again.State(), again.Status().Cached)
	}
	if a, b := first.Status().Result, again.Status().Result; a != b {
		t.Fatal("cache hit did not share the result")
	}
	if s := e.Stats(); s.Cache.Hits != 1 || s.Cache.Misses != 1 || s.Cache.Entries != 1 {
		t.Fatalf("cache counters %+v, want hits=1 misses=1 entries=1", s.Cache)
	}

	// A different campaign evicts the only entry (capacity 1)...
	other, err := e.Submit(tinyReq(50))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, other, StateDone)
	// ...so the original request misses again.
	third, err := e.Submit(tinyReq(0))
	if err != nil {
		t.Fatal(err)
	}
	if third.Status().Cached {
		t.Fatal("evicted entry still hit")
	}
	waitState(t, third, StateDone)
	if s := e.Stats(); s.Cache.Misses != 3 || s.Cache.Entries != 1 {
		t.Fatalf("cache counters after eviction %+v, want misses=3 entries=1", s.Cache)
	}
}

func TestEngineQueueFIFOAndFull(t *testing.T) {
	e := New(Options{MaxJobs: 1, QueueDepth: 2, Workers: runner.Serial})
	defer e.Close()

	blocker, err := e.Submit(blockerReq())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)

	q1, err := e.Submit(tinyReq(10))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Submit(tinyReq(20))
	if err != nil {
		t.Fatal(err)
	}
	if q1.State() != StateQueued || q2.State() != StateQueued {
		t.Fatalf("states %s/%s, want queued/queued", q1.State(), q2.State())
	}
	if _, err := e.Submit(tinyReq(30)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond QueueDepth: %v, want ErrQueueFull", err)
	}
	if s := e.Stats(); s.QueueDepth != 2 {
		t.Fatalf("stats queue depth %d, want 2", s.QueueDepth)
	}

	// Releasing the slot drains the queue in submission order.
	blocker.Cancel()
	waitState(t, blocker, StateCanceled)
	waitState(t, q1, StateDone)
	waitState(t, q2, StateDone)
}

func TestEngineCancel(t *testing.T) {
	e := New(Options{MaxJobs: 1, QueueDepth: 4, Workers: runner.Serial})
	defer e.Close()

	running, err := e.Submit(blockerReq())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(tinyReq(40))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)

	// A queued job cancels instantly, without ever taking the slot.
	queued.Cancel()
	if queued.State() != StateCanceled {
		t.Fatalf("queued job state %s after Cancel, want canceled", queued.State())
	}

	// A running job stops at the next replica chunk.
	running.Cancel()
	waitState(t, running, StateCanceled)
	if st := running.Status(); st.Result != nil {
		t.Fatal("canceled job carries a result")
	}

	// Cancel on a terminal job is a no-op.
	running.Cancel()
	if running.State() != StateCanceled {
		t.Fatal("Cancel changed a terminal state")
	}

	if s := e.Stats(); s.Jobs[StateCanceled] != 2 {
		t.Fatalf("stats count %d canceled jobs, want 2", s.Jobs[StateCanceled])
	}
}

func TestEngineClose(t *testing.T) {
	e := New(Options{MaxJobs: 1, QueueDepth: 4, Workers: runner.Serial})
	blocker, err := e.Submit(blockerReq())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(tinyReq(60))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)

	e.Close()
	if blocker.State() != StateCanceled || queued.State() != StateCanceled {
		t.Fatalf("states after Close: %s/%s, want canceled/canceled", blocker.State(), queued.State())
	}
	if _, err := e.Submit(tinyReq(70)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

func TestEngineRejectsInvalidRequests(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial})
	defer e.Close()

	if _, err := e.Submit(Request{Slots: 100}); err == nil {
		t.Fatal("request with no spec accepted")
	}
	spec := tinySpec()
	if _, err := e.Submit(Request{Spec: &spec}); err == nil {
		t.Fatal("request with zero slots accepted")
	}
	bad := netspec.Spec{Piconets: []netspec.Piconet{{Slaves: 9}}}
	_, err := e.Submit(Request{Spec: &bad, Slots: 100})
	var se *netspec.StanzaError
	if !errors.As(err, &se) {
		t.Fatalf("invalid spec error %v, want a wrapped *netspec.StanzaError", err)
	}
}

func TestJobEvents(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial, SnapshotSlots: 256})
	defer e.Close()

	spec := tinySpec()
	job, err := e.Submit(Request{
		Spec:  &spec,
		Seeds: SeedRange{First: 200, Count: 4},
		Slots: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, catchUp := job.Subscribe()
	defer job.Unsubscribe(ch)
	if len(catchUp) == 0 || catchUp[0].Type != "state" {
		t.Fatalf("catch-up %+v, want a leading state frame", catchUp)
	}

	var progress, snapshots int
	var last StateEvent
	deadline := time.After(30 * time.Second)
	for done := false; !done; {
		select {
		case ev, open := <-ch:
			if !open {
				done = true
				break
			}
			switch ev.Type {
			case "state":
				last = ev.Data.(StateEvent)
			case "progress":
				progress++
			case "snapshot":
				snapshots++
				if _, ok := ev.Data.(netspec.Metrics); !ok {
					t.Fatalf("snapshot payload is %T, want netspec.Metrics", ev.Data)
				}
			}
		case <-deadline:
			t.Fatal("event stream never closed")
		}
	}
	if last.State != StateDone {
		t.Fatalf("final state frame %+v, want done", last)
	}
	if progress == 0 {
		t.Fatal("no progress frames over a 4-replica campaign")
	}
	if snapshots == 0 {
		t.Fatal("no snapshot frames despite SnapshotSlots > 0")
	}

	// Subscribing to a terminal job yields a closed channel plus the
	// terminal state as catch-up.
	ch2, catchUp2 := job.Subscribe()
	if _, open := <-ch2; open {
		t.Fatal("terminal subscription channel not closed")
	}
	if st := catchUp2[0].Data.(StateEvent); st.State != StateDone {
		t.Fatalf("terminal catch-up %+v, want done", st)
	}
}

// forkSpec keeps stochastic draws flowing after the fork instant — a
// poisson pump draws a gap per burst — so different fork seeds
// measurably diverge. A pure bulk world at BER 0 exhausts its
// randomness at build time and every fork would be identical.
func forkSpec() netspec.Spec {
	return netspec.Spec{
		Piconets: []netspec.Piconet{{Slaves: 1}},
		Traffic:  []netspec.Traffic{{Kind: netspec.TrafficPoisson, Piconet: netspec.AllPiconets, MeanGapSlots: 30, BurstBytes: 96}},
	}
}

// TestRunForkCampaign pins the forked campaign discipline: replica 0
// is the straight continuation of the settled world, later replicas
// diverge under their fork seeds, and the whole result is reproducible
// byte for byte.
func TestRunForkCampaign(t *testing.T) {
	spec := forkSpec()
	req := Request{
		Spec:        &spec,
		Seeds:       SeedRange{First: 5, Count: 3},
		Slots:       3000,
		SettleSlots: 512,
		Fork:        true,
	}
	res, err := Run(context.Background(), req, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || len(res.Points[0].Replicas) != 3 {
		t.Fatalf("result shape %+v, want 1 point x 3 replicas", res)
	}

	// Replica 0 must equal the straight arm: settle, snapshot (the
	// world continues past the capture), fresh window, same horizon.
	s := core.NewSimulation(core.Options{Seed: req.Seeds.First})
	w, err := netspec.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	s.RunSlots(req.SettleSlots)
	if _, err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	w.ResetMetrics()
	s.RunSlots(req.Slots)
	straight, _ := json.Marshal(w.Metrics())
	rep0, _ := json.Marshal(res.Points[0].Replicas[0])
	if string(rep0) != string(straight) {
		t.Fatalf("fork replica 0 diverged from the straight continuation:\n  fork:     %s\n  straight: %s", rep0, straight)
	}

	// Later replicas perturb the streams and must diverge.
	rep1, _ := json.Marshal(res.Points[0].Replicas[1])
	rep2, _ := json.Marshal(res.Points[0].Replicas[2])
	if string(rep0) == string(rep1) || string(rep1) == string(rep2) {
		t.Fatalf("fork replicas did not diverge:\n  0: %s\n  1: %s\n  2: %s", rep0, rep1, rep2)
	}

	// The campaign is deterministic: a rerun is byte-identical.
	res2, err := Run(context.Background(), req, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(res2)
	if string(a) != string(b) {
		t.Fatal("forked campaign rerun diverged")
	}
}

// TestForkCacheKeyDiffers pins Fork into the request identity: the
// same campaign forked and unforked measures different replica
// ensembles and must never share a cached result.
func TestForkCacheKeyDiffers(t *testing.T) {
	spec := forkSpec()
	req := Request{Spec: &spec, Seeds: SeedRange{First: 5, Count: 2}, Slots: 1000}
	plain, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	req.Fork = true
	forked, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if plain == forked {
		t.Fatal("forked and unforked requests share a cache key")
	}
}

// TestEngineCheckpointCacheReuse pins the checkpoint LRU: two forked
// campaigns over the same settled world (different measured horizons,
// so the result cache misses) share one settle.
func TestEngineCheckpointCacheReuse(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial})
	defer e.Close()
	spec := forkSpec()
	for i, slots := range []uint64{1500, 2500} {
		job, err := e.Submit(Request{
			Spec:        &spec,
			Seeds:       SeedRange{First: 7, Count: 2},
			Slots:       slots,
			SettleSlots: 256,
			Fork:        true,
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitState(t, job, StateDone)
	}
	if s := e.Stats(); s.Checkpoints.Hits != 1 || s.Checkpoints.Misses != 1 || s.Checkpoints.Entries != 1 {
		t.Fatalf("checkpoint cache counters %+v, want hits=1 misses=1 entries=1", s.Checkpoints)
	}
}

// TestEngineCacheConcurrentSubmitHit hammers the result cache from
// many goroutines with a working set larger than its capacity, so
// hits, misses and evictions interleave with running jobs. The
// assertions are invariants — every job terminal-done, entry count
// bounded by capacity, counters consistent — and the race detector
// checks the rest.
func TestEngineCacheConcurrentSubmitHit(t *testing.T) {
	e := New(Options{MaxJobs: 4, Workers: runner.Serial, CacheSize: 2, QueueDepth: 256})
	defer e.Close()

	const submitters, perSubmitter = 8, 12
	var wg sync.WaitGroup
	jobs := make(chan *Job, submitters*perSubmitter)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				// Three distinct campaigns across a capacity-2 cache:
				// repeats hit or re-simulate depending on eviction order.
				job, err := e.Submit(tinyReq(uint64((g + i) % 3)))
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				jobs <- job
			}
		}(g)
	}
	wg.Wait()
	close(jobs)

	results := make(map[string]string) // cache key -> result JSON
	for job := range jobs {
		waitState(t, job, StateDone)
		res, _ := json.Marshal(job.Status().Result)
		if prev, ok := results[job.Key]; ok && prev != string(res) {
			t.Fatalf("same request produced different results:\n  %s\n  %s", prev, res)
		}
		results[job.Key] = string(res)
	}
	s := e.Stats()
	if s.Cache.Entries > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", s.Cache.Entries)
	}
	if got, want := s.Cache.Hits+s.Cache.Misses, uint64(submitters*perSubmitter); got != want {
		t.Fatalf("hits+misses = %d, want %d submissions", got, want)
	}
	if s.Jobs[StateDone] != submitters*perSubmitter {
		t.Fatalf("done jobs %d, want %d", s.Jobs[StateDone], submitters*perSubmitter)
	}
}

// TestEngineDrain pins the graceful-shutdown contract: intake closes,
// queued jobs cancel without taking a slot, running jobs finish.
func TestEngineDrain(t *testing.T) {
	e := New(Options{MaxJobs: 1, QueueDepth: 4, Workers: runner.Serial})
	defer e.Close()

	// Long enough to still be running when Drain starts, short enough
	// to finish well inside the drain budget.
	spec := tinySpec()
	running, err := e.Submit(Request{
		Spec:  &spec,
		Seeds: SeedRange{First: 80, Count: 1},
		Slots: 300_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := e.Submit(tinyReq(81))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if running.State() != StateDone {
		t.Fatalf("running job ended %s, want done", running.State())
	}
	// The queued job may have reached the free slot before Drain marked
	// it; either way it must be terminal, and canceled if it never ran.
	if st := queued.State(); !st.terminal() {
		t.Fatalf("queued job left non-terminal: %s", st)
	}
	if _, err := e.Submit(tinyReq(82)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Drain: %v, want ErrClosed", err)
	}
}

// TestEngineDrainTimeout pins the deadline path: a job longer than the
// budget leaves Drain with the context error, and Close then cancels.
func TestEngineDrainTimeout(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial})
	blocker, err := e.Submit(blockerReq())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain: %v, want deadline exceeded", err)
	}
	e.Close()
	if blocker.State() != StateCanceled {
		t.Fatalf("blocker ended %s after Close, want canceled", blocker.State())
	}
}

// TestRunMatchesRunReplica pins the campaign fan-out to the underlying
// replica discipline: entry [i][j] of a Run result is byte-identical
// JSON to RunReplica on point i, seed First+j.
func TestRunMatchesRunReplica(t *testing.T) {
	spec := tinySpec()
	pair := netspec.Spec{
		Piconets:  []netspec.Piconet{{Slaves: 1}, {Slaves: 1}},
		Traffic:   []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
		Placement: &netspec.Placement{Kind: netspec.PlaceGrid, RangeM: 12, SpacingM: 10},
	}
	req := Request{
		Points:      []netspec.Spec{spec, pair},
		Seeds:       SeedRange{First: 5, Count: 3},
		Slots:       3000,
		SettleSlots: 64,
	}
	res, err := Run(context.Background(), req, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Points {
		for j, m := range p.Replicas {
			want, err := RunReplica(nil, req.Points[i], req.Seeds.First+uint64(j), req.SettleSlots, req.Slots)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(m)
			b, _ := json.Marshal(want)
			if string(a) != string(b) {
				t.Fatalf("points[%d] replica %d diverged from RunReplica:\n  sweep:   %s\n  replica: %s", i, j, a, b)
			}
		}
	}
}
