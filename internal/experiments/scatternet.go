package experiments

import (
	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/stats"
)

// ScatternetRow is one point of the bridge duty-cycle sweep: end-to-end
// goodput through the bridge, store-and-forward latency at the bridge,
// end-to-end delivery latency and the bridge queue profile, averaged
// over the replicas.
type ScatternetRow struct {
	Duty         float64
	GoodputKbps  float64
	FwdLatencyMs float64 // bridge store-and-forward latency
	E2ELatencyMs float64 // origin send to final delivery
	QueueMean    float64 // time-weighted bridge backlog
	QueueMax     float64
	Forwarded    float64
	Dropped      float64
	N            int // replicas averaged
}

// scatObs is one replica's raw observation.
type scatObs struct {
	Bytes     int
	FwdLatMs  float64
	E2ELatMs  float64
	QueueMean float64
	QueueMax  int
	Forwarded int
	Dropped   int
}

// msPerSlot converts slot latencies to milliseconds (one slot = 625 µs).
const msPerSlot = 0.625

// scatSettlePeriods is how many presence periods a trial runs before
// the measurement window opens, so the relay pipeline — presence
// scheduler, first window exchanges, queue ramp — reaches steady state.
const scatSettlePeriods = 3

// ScatternetSweep measures a two-piconet, one-bridge scatternet as the
// bridge's presence duty cycle sweeps: the canonical end-to-end flow
// (master of piconet 0 to a slave of piconet 1) runs through the
// bridge's store-and-forward relay, and each point reports goodput and
// latency. More presence means wider sniff windows on both bridge
// links, so goodput rises and the queueing latency falls monotonically
// with duty.
//
// Each point averages several replicas (fresh clock phases per seed):
// the relative phase between the two piconets' slot grids shifts how
// much of each presence window survives boundary rounding, so a single
// replica can sit a few percent off the mean.
func ScatternetSweep(duties []float64, measureSlots uint64, replicas int, seed uint64, cfg ...runner.Config) []ScatternetRow {
	sw := runner.Sweep[float64, scatObs]{
		Name:     "scatternet",
		Points:   duties,
		Replicas: replicas,
		Seed: func(point, replica int) uint64 {
			return seed + uint64(point)*131 + uint64(replica)*7919
		},
		Trial: func(seed uint64, duty float64) scatObs {
			w := netspec.MustBuild(core.NewSimulation(core.Options{Seed: seed}), netspec.Spec{
				Piconets: []netspec.Piconet{{Slaves: 1}, {Slaves: 1}},
				Bridges:  []netspec.Bridge{{A: 0, B: 1, PresenceDuty: duty}},
				Traffic: []netspec.Traffic{
					{Kind: netspec.TrafficFlow, From: netspec.MasterName(0), To: netspec.SlaveName(1, 1)},
				},
			})
			w.Start()
			w.Sim.RunSlots(uint64(scatSettlePeriods * 256))
			w.ResetMetrics()
			w.Sim.RunSlots(measureSlots)
			m := w.Metrics()
			return scatObs{
				Bytes:     m.EndToEndBytes,
				FwdLatMs:  m.FwdLatency.Mean() * msPerSlot,
				E2ELatMs:  m.E2ELatency.Mean() * msPerSlot,
				QueueMean: m.Queue.Mean,
				QueueMax:  m.Queue.Max,
				Forwarded: m.ForwardedFrames,
				Dropped:   m.DroppedFrames,
			}
		},
	}
	return runner.ReducePoints(duties, sw.Run(oneCfg(cfg)), func(duty float64, obs []scatObs) ScatternetRow {
		row := ScatternetRow{Duty: duty, N: len(obs)}
		for _, o := range obs {
			row.GoodputKbps += netspec.GoodputKbps(o.Bytes, measureSlots)
			row.FwdLatencyMs += o.FwdLatMs
			row.E2ELatencyMs += o.E2ELatMs
			row.QueueMean += o.QueueMean
			row.QueueMax += float64(o.QueueMax)
			row.Forwarded += float64(o.Forwarded)
			row.Dropped += float64(o.Dropped)
		}
		n := float64(len(obs))
		row.GoodputKbps /= n
		row.FwdLatencyMs /= n
		row.E2ELatencyMs /= n
		row.QueueMean /= n
		row.QueueMax /= n
		row.Forwarded /= n
		row.Dropped /= n
		return row
	})
}

// ScatternetTable renders the bridge duty-cycle sweep.
func ScatternetTable(rows []ScatternetRow) *stats.Table {
	t := stats.NewTable("Scatternet: end-to-end goodput and forwarding latency vs bridge presence duty (replica means)",
		"duty", "goodput_kbps", "fwd_latency_ms", "e2e_latency_ms",
		"queue_mean", "queue_max", "forwarded", "dropped", "n")
	for _, r := range rows {
		t.AddRow(r.Duty, r.GoodputKbps, r.FwdLatencyMs, r.E2ELatencyMs,
			r.QueueMean, r.QueueMax, r.Forwarded, r.Dropped, r.N)
	}
	return t
}
