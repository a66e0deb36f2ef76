package simd

import (
	"context"
	"testing"

	"repro/internal/netspec"
	"repro/internal/runner"
)

// benchReq is one tiny campaign: a single-slave bulk piconet, one
// seed, a short horizon — the smallest job the service can run, so the
// measured rate is dominated by the engine's per-job machinery plus one
// cheap simulation rather than by the world itself.
func benchReq(seed uint64) Request {
	spec := netspec.Spec{
		Piconets: []netspec.Piconet{{Slaves: 1}},
		Traffic:  []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
	}
	return Request{
		Spec:  &spec,
		Seeds: SeedRange{First: seed, Count: 1},
		Slots: 2000,
	}
}

// BenchmarkSimdJobThroughput measures end-to-end jobs per second
// through the engine (submit → run → terminal state): cold with every
// job a distinct campaign that must simulate, warm with every job the
// identical campaign answered from the result cache. The cold/warm gap
// is what the LRU buys a repeated sweep.
func BenchmarkSimdJobThroughput(b *testing.B) {
	bench := func(b *testing.B, req func(i int) Request) {
		e := New(Options{MaxJobs: 1, Workers: runner.Serial, CacheSize: 4})
		defer e.Close()
		// Prime the cache so the warm variant hits from iteration one.
		job, err := e.Submit(req(-1))
		if err != nil {
			b.Fatal(err)
		}
		<-jobDone(job)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := e.Submit(req(i))
			if err != nil {
				b.Fatal(err)
			}
			<-jobDone(job)
			if job.State() != StateDone {
				b.Fatalf("job ended %s", job.State())
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	}
	b.Run("cold", func(b *testing.B) {
		// Every iteration a fresh seed range: guaranteed cache miss.
		bench(b, func(i int) Request { return benchReq(uint64(10_000 + i)) })
	})
	b.Run("warm", func(b *testing.B) {
		// Every iteration the primed campaign: guaranteed cache hit.
		bench(b, func(int) Request { return benchReq(uint64(10_000 - 1)) })
	})
}

// BenchmarkCheckpointFork measures replicas per second on a
// settle-heavy campaign two ways: straight, where every replica
// rebuilds its world and re-pays the full settle horizon, and forked,
// where the settle runs once per campaign and every replica restores
// from the serialized checkpoint. The settle dwarfs the measured
// window by design — that is the workload class the checkpoint-fork
// path exists for — so the replicas/s gap is the feature's headline
// number. Serial workers keep the comparison about simulated work, not
// pool parallelism.
func BenchmarkCheckpointFork(b *testing.B) {
	spec := forkSpec()
	const replicas = 8
	campaign := func(fork bool) Request {
		return Request{
			Spec:        &spec,
			Seeds:       SeedRange{First: 1, Count: replicas},
			Slots:       2000,
			SettleSlots: 20_000,
			Fork:        fork,
		}
	}
	bench := func(b *testing.B, fork bool) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), campaign(fork), runner.Config{Workers: runner.Serial}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*replicas)/b.Elapsed().Seconds(), "replicas/s")
	}
	b.Run("straight", func(b *testing.B) { bench(b, false) })
	b.Run("fork", func(b *testing.B) { bench(b, true) })
}

// jobDone returns a channel that closes when the job goes terminal,
// using the subscription machinery (a terminal job subscribes as an
// already-closed channel, so cache hits cost one channel make).
func jobDone(j *Job) <-chan struct{} {
	done := make(chan struct{})
	ch, _ := j.Subscribe()
	go func() {
		defer close(done)
		for range ch {
		}
		j.Unsubscribe(ch)
	}()
	return done
}
