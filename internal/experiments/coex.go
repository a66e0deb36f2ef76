package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/stats"
)

// CoexRow is one point of a co-located-piconet sweep: per-link
// goodput, ARQ cost and the attributed collision counts, averaged over
// the replicas.
type CoexRow struct {
	Piconets    int
	PerLinkKbs  float64
	Retransmits float64
	Inter       float64 // inter-piconet collision pairs
	Intra       float64 // same-piconet collision pairs
	N           int     // replicas averaged
}

// coexObs is one replica's raw observation.
type coexObs struct {
	Bytes, Retransmits, Inter, Intra int
}

// coexTrialSettleSlots is the post-build settle window before a
// measurement starts (lets every pump reach steady state).
const coexTrialSettleSlots = 64

// CoexWorld is one family of co-located piconet worlds, indexed by
// piconet count, that Sweep measures: SharedEther or OfficeFloor.
type CoexWorld struct {
	name, title string                          // sweep label, table title
	spec        func(piconets int) netspec.Spec // the world at one count
	seedStride  uint64                          // spreads successive counts' seeds
}

// SharedEther is the paper's reference [4] scenario on the coexistence
// engine: 1..N independent single-slave piconets with saturating pumps
// on the one shared medium, collisions attributed to inter- vs
// intra-piconet interference.
var SharedEther = CoexWorld{
	name:  "coex",
	title: "Coex: per-link goodput and collisions vs co-located piconets (replica means)",
	spec: func(piconets int) netspec.Spec {
		return netspec.Spec{
			Piconets: slices.Repeat([]netspec.Piconet{{Slaves: 1, TpollSlots: netspec.TpollNever}}, piconets),
			Traffic:  []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
		}
	},
	seedStride: 101,
}

// Sweep measures throughput and retransmissions as the world fills
// with piconets.
//
// Each point averages several replicas (fresh clock phases per seed)
// because the spec's hop kernel makes collision counts between two
// piconets heavily offset-dependent: the piconet clocks never drift in
// this model, so the relative offset is constant for a whole run, and a
// few percent of offsets yield basic hop sequences that are
// collision-free for tens of thousands of slots. A single replica can
// therefore legitimately report zero inter-piconet collisions;
// averaging over clock phases restores the expected ~1/79 picture.
func (cw CoexWorld) Sweep(counts []int, measureSlots uint64, replicas int, seed uint64, cfg ...runner.Config) []CoexRow {
	sw := runner.Sweep[int, coexObs]{
		Name:     cw.name,
		Points:   counts,
		Replicas: replicas,
		Seed: func(point, replica int) uint64 {
			return seed + uint64(counts[point])*cw.seedStride + uint64(replica)*7919
		},
		Trial: func(seed uint64, piconets int) coexObs {
			w := netspec.MustBuild(core.NewSimulation(core.Options{Seed: seed}), cw.spec(piconets))
			w.Start()
			w.Sim.RunSlots(coexTrialSettleSlots)
			w.ResetMetrics()
			w.Sim.RunSlots(measureSlots)
			m := w.Metrics()
			return coexObs{Bytes: m.Bytes, Retransmits: m.Retransmits, Inter: m.Inter, Intra: m.Intra}
		},
	}
	return runner.ReducePoints(counts, sw.Run(oneCfg(cfg)), func(piconets int, obs []coexObs) CoexRow {
		row := CoexRow{Piconets: piconets, N: len(obs)}
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

// Table renders a sweep of this world.
func (cw CoexWorld) Table(rows []CoexRow) *stats.Table {
	t := stats.NewTable(cw.title,
		"piconets", "per_link_kbps", "retransmits", "inter_collisions", "intra_collisions", "n")
	for _, r := range rows {
		t.AddRow(r.Piconets, r.PerLinkKbs, r.Retransmits, r.Inter, r.Intra, r.N)
	}
	return t
}

// AdaptiveAFHRow compares hop-set strategies under one jammer width:
// classic hopping, the oracle ExcludeRange map, and the map learned by
// the adaptive classifier.
type AdaptiveAFHRow struct {
	Width      int // jammed channels
	PlainKbs   float64
	OracleKbs  float64
	LearnedKbs float64
	LearnedN   int // channels in the learned map (79 = never narrowed)
}

// afhBandLo anchors the jammed band; a width-w jammer occupies channels
// afhBandLo..afhBandLo+w-1 (w=23 reproduces the classic 802.11 DSSS
// footprint of channels 30-52).
const afhBandLo = 30

// adaptiveArm measures one hop-set strategy under a jammer of the given
// width. Every arm — off, oracle, adaptive — runs the identical
// protocol: build jam-free (netspec installs jammers after topology
// construction), pump traffic through the same convergence warm-up,
// then measure a clean steady-state window. Only then are the columns
// of one row comparable.
func adaptiveArm(seed uint64, mode netspec.AFHMode, width int, duty float64,
	assessWindow int, measureSlots uint64) (float64, int) {
	hi := afhBandLo + width - 1
	w := netspec.MustBuild(core.NewSimulation(core.Options{Seed: seed}), netspec.Spec{
		Piconets: []netspec.Piconet{{
			Slaves:            1,
			TpollSlots:        netspec.TpollNever,
			AFH:               mode,
			OracleLo:          afhBandLo,
			OracleHi:          hi,
			AssessWindowSlots: assessWindow,
		}},
		Traffic: []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
		Jammers: []netspec.Jammer{{Lo: afhBandLo, Hi: hi, Duty: duty}},
	})
	w.Start()
	w.Sim.RunSlots(netspec.ConvergenceSlots(assessWindow))
	w.ResetMetrics()
	w.Sim.RunSlots(measureSlots)
	mapN := 79
	if cm := w.Piconets[0].CurrentMap(); cm != nil {
		mapN = cm.N()
	}
	return netspec.GoodputKbps(w.Metrics().Bytes, measureSlots), mapN
}

// AdaptiveAFH sweeps the jammer width, measuring goodput for classic
// hopping, the oracle map and the learned map on identical worlds — the
// learned-vs-oracle ablation of the v1.2 AFH mechanism.
func AdaptiveAFH(widths []int, duty float64, assessWindow int, measureSlots uint64, seed uint64, cfg ...runner.Config) []AdaptiveAFHRow {
	sw := runner.Sweep[int, AdaptiveAFHRow]{
		Name:   "afh-adaptive",
		Points: widths,
		Seed:   func(point, _ int) uint64 { return seed + uint64(widths[point])*977 },
		Trial: func(seed uint64, width int) AdaptiveAFHRow {
			plain, _ := adaptiveArm(seed, netspec.AFHOff, width, duty, assessWindow, measureSlots)
			oracle, _ := adaptiveArm(seed, netspec.AFHOracle, width, duty, assessWindow, measureSlots)
			learned, n := adaptiveArm(seed, netspec.AFHAdaptive, width, duty, assessWindow, measureSlots)
			return AdaptiveAFHRow{
				Width: width, PlainKbs: plain, OracleKbs: oracle, LearnedKbs: learned, LearnedN: n,
			}
		},
	}
	return runner.Flatten(sw.Run(oneCfg(cfg)))
}

// AdaptiveAFHTable renders the learned-vs-oracle comparison.
func AdaptiveAFHTable(duty float64, rows []AdaptiveAFHRow) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Adaptive AFH: goodput vs jammer width (duty %.0f%%), learned map vs oracle", duty*100),
		"jam_width", "plain_kbps", "oracle_kbps", "learned_kbps", "learned_channels", "learned_vs_oracle")
	for _, r := range rows {
		ratio := 0.0
		if r.OracleKbs > 0 {
			ratio = r.LearnedKbs / r.OracleKbs
		}
		t.AddRow(r.Width, r.PlainKbs, r.OracleKbs, r.LearnedKbs, r.LearnedN, ratio)
	}
	return t
}

// CoexistenceRow compares goodput under a static 802.11-style interferer
// across hop-set strategies: classic hopping, the oracle map that
// excludes the jammed band by construction, and the map the adaptive
// classifier learns from per-frequency reception errors.
type CoexistenceRow struct {
	JammerDuty float64
	PlainKbs   float64 // classic 79-channel hopping
	AFHKbs     float64 // oracle hop set excluding the jammed band
	LearnedKbs float64 // hop set learned by adaptive channel classification
}

// jammerLo..jammerHi is the band the simulated 802.11 network occupies
// (a 22 MHz DSSS channel).
const (
	jammerLo = 30
	jammerHi = 52
)

// coexAssessWindowSlots is the classification window the learned-map arm
// of the coexistence sweep uses.
const coexAssessWindowSlots = 1500

// Coexistence measures master→slave goodput with a static interferer
// over channels 30-52, comparing classic hopping, an oracle AFH map
// that excludes the jammed band by construction, and the map learned by
// adaptive channel classification — the interference problem of the
// paper's references [3-5] and the v1.2 fix. All three arms run the
// identical protocol (same builder, same warm-up, same clean
// measurement window) so the columns of one row are comparable.
func Coexistence(duties []float64, measureSlots uint64, seed uint64, cfg ...runner.Config) []CoexistenceRow {
	const width = jammerHi - jammerLo + 1
	sw := runner.Sweep[float64, CoexistenceRow]{
		Name:   "coexistence",
		Points: duties,
		Seed:   func(point, _ int) uint64 { return seed + uint64(duties[point]*1000) },
		Trial: func(seed uint64, duty float64) CoexistenceRow {
			arm := func(mode netspec.AFHMode) float64 {
				kbs, _ := adaptiveArm(seed, mode, width, duty, coexAssessWindowSlots, measureSlots)
				return kbs
			}
			return CoexistenceRow{
				JammerDuty: duty,
				PlainKbs:   arm(netspec.AFHOff),
				AFHKbs:     arm(netspec.AFHOracle),
				LearnedKbs: arm(netspec.AFHAdaptive),
			}
		},
	}
	return runner.Flatten(sw.Run(oneCfg(cfg)))
}

// CoexistenceTable renders the AFH comparison.
func CoexistenceTable(rows []CoexistenceRow) *stats.Table {
	t := stats.NewTable("Coexistence: goodput under an 802.11 interferer on channels 30-52",
		"jammer_duty", "plain_kbps", "afh_kbps", "learned_kbps", "afh_gain")
	for _, r := range rows {
		gain := 0.0
		if r.PlainKbs > 0 {
			gain = r.AFHKbs / r.PlainKbs
		}
		t.AddRow(fmt.Sprintf("%.0f%%", r.JammerDuty*100), r.PlainKbs, r.AFHKbs, r.LearnedKbs, gain)
	}
	return t
}
