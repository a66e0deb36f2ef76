package experiments

import (
	"slices"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/stats"
)

// The density sweep is the experiment the spatial medium exists for:
// an office floor packed with piconets well past the global medium's
// 8-piconet ceiling. On the shared ether, aggregate goodput saturates
// as every transmission interferes with every co-channel transmission
// world-wide; with positions and a path-loss range, piconets outside
// each other's interference reach reuse the band, so per-link goodput
// levels off at the local-neighbourhood interference instead of
// collapsing with world size.

// DensityRow is one point of the dense-deployment sweep.
type DensityRow struct {
	Piconets    int
	PerLinkKbs  float64
	Retransmits float64
	Inter       float64 // inter-piconet collision pairs
	Intra       float64 // same-piconet collision pairs
	N           int     // replicas averaged
}

// Office-floor geometry: desks on a 10 m grid, a 12 m delivery range
// (one desk neighbourhood plus margin) and a 22 m interference reach —
// the classic "can't decode but still jams" penumbra.
const (
	DensitySpacingM      = 10
	DensityRangeM        = 12
	DensityInterferenceM = 22
)

// DensitySpec is the office-floor world at one density: `piconets`
// single-slave piconets with saturating pumps on a spatial grid.
func DensitySpec(piconets int) netspec.Spec {
	return netspec.Spec{
		Piconets: slices.Repeat([]netspec.Piconet{{Slaves: 1, TpollSlots: netspec.TpollNever}}, piconets),
		Traffic:  []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
		Placement: &netspec.Placement{
			Kind: netspec.PlaceGrid, RangeM: DensityRangeM, SpacingM: DensitySpacingM,
			InterferenceM: DensityInterferenceM,
		},
	}
}

// DensitySweep measures per-link goodput and collision attribution as
// the office floor fills up. Counts may (and should) go well past the
// CoexSweep ceiling: 32+ piconets is the regime where spatial reuse
// separates from the shared-ether model. Replicas average over clock
// phases exactly as CoexSweep does.
func DensitySweep(counts []int, measureSlots uint64, replicas int, seed uint64, cfg ...runner.Config) []DensityRow {
	sw := runner.Sweep[int, coexObs]{
		Name:     "density",
		Points:   counts,
		Replicas: replicas,
		Seed: func(point, replica int) uint64 {
			return seed + uint64(counts[point])*131 + uint64(replica)*7919
		},
		Trial: func(seed uint64, piconets int) coexObs {
			w := netspec.MustBuild(core.NewSimulation(core.Options{Seed: seed}), DensitySpec(piconets))
			w.Start()
			w.Sim.RunSlots(coexTrialSettleSlots)
			w.ResetMetrics()
			w.Sim.RunSlots(measureSlots)
			m := w.Metrics()
			return coexObs{Bytes: m.Bytes, Retransmits: m.Retransmits, Inter: m.Inter, Intra: m.Intra}
		},
	}
	return runner.ReducePoints(counts, sw.Run(oneCfg(cfg)), func(piconets int, obs []coexObs) DensityRow {
		row := DensityRow{Piconets: piconets, N: len(obs)}
		for _, o := range obs {
			row.PerLinkKbs += netspec.GoodputKbps(o.Bytes, measureSlots) / float64(piconets)
			row.Retransmits += float64(o.Retransmits)
			row.Inter += float64(o.Inter)
			row.Intra += float64(o.Intra)
		}
		n := float64(len(obs))
		row.PerLinkKbs /= n
		row.Retransmits /= n
		row.Inter /= n
		row.Intra /= n
		return row
	})
}

// DensityTable renders the dense-deployment sweep.
func DensityTable(rows []DensityRow) *stats.Table {
	t := stats.NewTable("Density: per-link goodput and collisions vs piconets on a spatial office grid (replica means)",
		"piconets", "per_link_kbps", "retransmits", "inter_collisions", "intra_collisions", "n")
	for _, r := range rows {
		t.AddRow(r.Piconets, r.PerLinkKbs, r.Retransmits, r.Inter, r.Intra, r.N)
	}
	return t
}
