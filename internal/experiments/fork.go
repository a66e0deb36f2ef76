package experiments

import (
	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/stats"
)

// The checkpoint-fork ensemble compares the two ways of replicating a
// stochastic measurement. The straight ensemble builds and settles an
// independent world per replica — fresh clock phases, fresh noise —
// and pays the warm-up every time. The forked ensemble settles one
// world, snapshots it at a quiescent slot edge, and forks the replicas
// from the checkpoint under perturbed RNG streams: one warm-up, N
// post-fork noise realisations. Forked replicas share every pre-fork
// draw (clock phases, settled ARQ pipelines), so their spread measures
// post-fork channel noise alone — typically tighter than the straight
// ensemble's, which folds warm-up variation in. The table shows both
// side by side; the fork column is the what-if-arm discipline.

// forkDemoBER keeps stochastic draws flowing after the fork instant —
// every reception consults the channel noise stream — so perturbed
// fork seeds genuinely diverge.
const forkDemoBER = 1.0 / 500

// forkDemoSpec is the office-floor world with poisson bursts instead
// of DensitySpec's saturating pumps: continuous saturation on
// phase-offset piconets can leave no globally quiescent slot edge for
// the snapshot probe, while poisson inter-burst gaps guarantee one —
// and the per-burst arrival draws keep the forked arms diverging.
func forkDemoSpec(piconets int) netspec.Spec {
	sp := DensitySpec(piconets)
	sp.Traffic = []netspec.Traffic{{
		Kind: netspec.TrafficPoisson, Piconet: netspec.AllPiconets,
		MeanGapSlots: 40, BurstBytes: 256,
	}}
	return sp
}

// ForkRow is one point of the checkpoint-fork ensemble comparison.
type ForkRow struct {
	Piconets    int
	StraightKbs float64 // mean per-link goodput, independent replicas
	StraightSD  float64
	ForkKbs     float64 // mean per-link goodput, forked replicas
	ForkSD      float64
	N           int
}

func forkDemoOptions(seed uint64) core.Options {
	return core.Options{Seed: seed, BER: forkDemoBER}
}

// ForkEnsemble runs the comparison over the office-floor worlds of
// OfficeFloor: per piconet count, `replicas` independent replicas and
// `replicas` forks of one settled world, both measured over
// measureSlots after settleSlots of warm-up.
func ForkEnsemble(counts []int, measureSlots, settleSlots uint64, replicas int, seed uint64, cfg ...runner.Config) []ForkRow {
	baseSeed := func(point int) uint64 { return seed + uint64(counts[point])*131 }
	perLink := func(w *netspec.World, piconets int) float64 {
		return netspec.GoodputKbps(w.Metrics().Bytes, measureSlots) / float64(piconets)
	}
	straight := runner.Sweep[int, float64]{
		Name:     "fork-straight",
		Points:   counts,
		Replicas: replicas,
		Seed: func(point, replica int) uint64 {
			return baseSeed(point) + uint64(replica)*7919
		},
		Trial: func(sd uint64, piconets int) float64 {
			w := netspec.MustBuild(core.NewSimulation(forkDemoOptions(sd)), forkDemoSpec(piconets))
			w.Start()
			w.Sim.RunSlots(settleSlots)
			w.ResetMetrics()
			w.Sim.RunSlots(measureSlots)
			return perLink(w, piconets)
		},
	}
	forked := runner.ForkSweep[int, *netspec.WorldCheckpoint, float64]{
		Name:     "fork-arms",
		Points:   counts,
		Replicas: replicas,
		Seed: func(point, replica int) uint64 {
			return baseSeed(point) + uint64(replica)*7919
		},
		Prepare: func(sd uint64, piconets int) (*netspec.WorldCheckpoint, error) {
			s := core.NewSimulation(forkDemoOptions(sd))
			w, err := netspec.Build(s, forkDemoSpec(piconets))
			if err != nil {
				return nil, err
			}
			w.Start()
			s.RunSlots(settleSlots)
			return w.Snapshot()
		},
		Trial: func(ck *netspec.WorldCheckpoint, forkSeed uint64, piconets int) float64 {
			// The restore target rebuilds under the capture seed but must
			// repeat the channel config itself: BER is world configuration,
			// not checkpointed state. A restore failure on a capture
			// Prepare just produced is a programmer error; panic like
			// MustBuild does.
			s := core.NewSimulation(forkDemoOptions(ck.Core.Seed))
			w, err := netspec.RestoreWorld(s, ck, core.RestoreOptions{ForkSeed: forkSeed})
			if err != nil {
				panic(err)
			}
			w.ResetMetrics()
			s.RunSlots(measureSlots)
			return perLink(w, piconets)
		},
	}
	c := oneCfg(cfg)
	srows := straight.Run(c)
	frows, err := forked.Run(c)
	if err != nil {
		panic(err)
	}
	rows := make([]ForkRow, len(counts))
	for i, piconets := range counts {
		var sObs, fObs stats.Sample
		for _, v := range srows[i] {
			sObs.Add(v)
		}
		for _, v := range frows[i] {
			fObs.Add(v)
		}
		rows[i] = ForkRow{
			Piconets:    piconets,
			StraightKbs: sObs.Mean(), StraightSD: sObs.StdDev(),
			ForkKbs: fObs.Mean(), ForkSD: fObs.StdDev(),
			N: replicas,
		}
	}
	return rows
}

// ForkTable renders the ensemble comparison.
func ForkTable(rows []ForkRow) *stats.Table {
	t := stats.NewTable("Checkpoint fork: per-link goodput, independent replicas vs forks of one settled world (BER 1/500)",
		"piconets", "straight_kbps", "straight_sd", "fork_kbps", "fork_sd", "n")
	for _, r := range rows {
		t.AddRow(r.Piconets, r.StraightKbs, r.StraightSD, r.ForkKbs, r.ForkSD, r.N)
	}
	return t
}
