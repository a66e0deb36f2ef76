// Package experiments regenerates every figure of the paper's evaluation
// (Figs 5-12) plus the sweeps of EXPERIMENTS.md "Beyond the paper's
// figures", the design ablations among them. Each Fig* function
// declares its sweep — parameter points, replica seeds, a trial kernel —
// and hands it to internal/runner, which fans the independent replicas
// out across a worker pool and folds the results back in deterministic
// replica order. The cmd/btexp binary and the benchmark harness share
// one implementation; serial and parallel schedules produce byte-for-
// byte identical tables.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/stats"
)

// BERPoint is one x-axis position of the paper's noise sweeps.
type BERPoint struct {
	Label string
	Value float64
}

// PaperBERs returns the sweep of the paper's Figs 6-8: 1/100 .. 1/30.
func PaperBERs() []BERPoint {
	return []BERPoint{
		{"1/100", 1.0 / 100}, {"1/90", 1.0 / 90}, {"1/80", 1.0 / 80},
		{"1/70", 1.0 / 70}, {"1/60", 1.0 / 60}, {"1/50", 1.0 / 50},
		{"1/40", 1.0 / 40}, {"1/30", 1.0 / 30},
	}
}

// TimeoutSlots is the paper's inquiry/page timeout: 1.28 s = 2048 slots.
const TimeoutSlots = 2048

// oneCfg picks the optional runner.Config off a variadic tail. Every
// sweep entry point takes `cfg ...runner.Config` so callers that need a
// per-run Progress hook or cancellation context (the service layer, a
// progress-bar CLI) can pass one without the zero-config callers — the
// tests, the benchmarks — changing at all.
func oneCfg(cfg []runner.Config) runner.Config {
	if len(cfg) > 0 {
		return cfg[0]
	}
	return runner.Config{}
}

// twoDevices builds the standard master/slave pair for a trial.
func twoDevices(seed uint64, ber float64) (*core.Simulation, *baseband.Device, *baseband.Device) {
	return twoDevicesCfg(seed, ber, nil)
}

// twoDevicesCfg is twoDevices with a config hook applied to both ends.
func twoDevicesCfg(seed uint64, ber float64, mut func(*baseband.Config)) (*core.Simulation, *baseband.Device, *baseband.Device) {
	s := core.NewSimulation(core.Options{Seed: seed, BER: ber})
	mc := baseband.Config{Addr: baseband.BDAddr{LAP: 0x21043A, UAP: 0x47, NAP: 0x0001}}
	sc := baseband.Config{Addr: baseband.BDAddr{LAP: 0x5A3F19, UAP: 0x9C, NAP: 0x0002}}
	if mut != nil {
		mut(&mc)
		mut(&sc)
	}
	m := s.AddDevice("master", mc)
	sl := s.AddDevice("slave", sc)
	return s, m, sl
}

// PhaseResult summarises one phase of the creation sweep at one BER.
type PhaseResult struct {
	BER      BERPoint
	MeanTS   float64
	CI95     float64
	FailRate float64
	N        int
}

// phaseStats is the mergeable accumulator one creation-phase replica
// produces: a zero-or-one element time sample plus a one-trial counter.
// Folding replicas in replica order reproduces the serial accumulation
// bit for bit, whatever schedule computed them.
type phaseStats struct {
	TS   stats.Sample
	Fail stats.Counter
}

func (a *phaseStats) merge(b *phaseStats) {
	a.TS.Merge(&b.TS)
	a.Fail.Merge(b.Fail)
}

// phaseResult folds the per-replica accumulators of one sweep point.
func phaseResult(b BERPoint, reps []phaseStats) PhaseResult {
	var acc phaseStats
	for i := range reps {
		acc.merge(&reps[i])
	}
	return PhaseResult{
		BER:      b,
		MeanTS:   acc.TS.Mean(),
		CI95:     acc.TS.CI95(),
		FailRate: acc.Fail.FailureRate(),
		N:        acc.Fail.Total,
	}
}

// inquiryTrial returns a trial running one inquiry attempt at the
// point's BER, with mut applied to both ends (nil for the paper setup).
func inquiryTrial(mut func(*baseband.Config)) func(uint64, BERPoint) phaseStats {
	return func(seed uint64, b BERPoint) phaseStats {
		s, m, sl := twoDevicesCfg(seed, b.Value, mut)
		sl.StartInquiryScan()
		var ok bool
		m.StartInquiry(TimeoutSlots, 1, func(rs []baseband.InquiryResult, o bool) { ok = o })
		s.RunSlots(TimeoutSlots + 64)
		var out phaseStats
		out.Fail.Observe(ok)
		if ok {
			out.TS.Add(float64(m.InquirySlots()))
		}
		return out
	}
}

// InquirySweep measures the inquiry phase vs BER (Fig 6 data and the
// inquiry curve of Fig 8): mean time slots over successful trials, and
// the failure probability at the paper's timeout.
func InquirySweep(bers []BERPoint, seeds int, cfg ...runner.Config) []PhaseResult {
	sw := runner.Sweep[BERPoint, phaseStats]{
		Name:     "inquiry",
		Points:   bers,
		Replicas: seeds,
		Seed:     func(_, replica int) uint64 { return uint64(replica)*7919 + 1 },
		Trial:    inquiryTrial(nil),
	}
	return runner.ReducePoints(bers, sw.Run(oneCfg(cfg)), phaseResult)
}

// PageSweep measures the page phase vs BER (Fig 7 data and the page
// curve of Fig 8), with devices already synchronised as after inquiry.
func PageSweep(bers []BERPoint, seeds int, cfg ...runner.Config) []PhaseResult {
	sw := runner.Sweep[BERPoint, phaseStats]{
		Name:     "page",
		Points:   bers,
		Replicas: seeds,
		Seed:     func(_, replica int) uint64 { return uint64(replica)*104729 + 3 },
		Trial: func(seed uint64, b BERPoint) phaseStats {
			s, m, sl := twoDevices(seed, b.Value)
			ok, slots := s.RunPageOnly(m, sl, TimeoutSlots)
			var out phaseStats
			out.Fail.Observe(ok)
			if ok {
				out.TS.Add(float64(slots))
			}
			return out
		},
	}
	return runner.ReducePoints(bers, sw.Run(oneCfg(cfg)), phaseResult)
}

// Fig6Table renders the inquiry sweep as the paper's Fig 6.
func Fig6Table(rows []PhaseResult) *stats.Table {
	t := stats.NewTable("Fig 6: mean time slots to complete INQUIRY vs BER", "BER", "mean_TS", "ci95", "n")
	for _, r := range rows {
		t.AddRow(r.BER.Label, r.MeanTS, r.CI95, r.N)
	}
	return t
}

// Fig7Table renders the page sweep as the paper's Fig 7.
func Fig7Table(rows []PhaseResult) *stats.Table {
	t := stats.NewTable("Fig 7: mean time slots to complete PAGE vs BER", "BER", "mean_TS", "ci95", "n")
	for _, r := range rows {
		t.AddRow(r.BER.Label, r.MeanTS, r.CI95, r.N)
	}
	return t
}

// Fig8Table combines both sweeps into the creation-failure figure.
func Fig8Table(inq, page []PhaseResult) *stats.Table {
	t := stats.NewTable("Fig 8: piconet creation failure probability vs BER",
		"BER", "inquiry_fail", "page_fail", "creation_fail")
	for i := range inq {
		pf := 0.0
		if i < len(page) {
			pf = page[i].FailRate
		}
		// Both phases must succeed to create the piconet.
		cf := 1 - (1-inq[i].FailRate)*(1-pf)
		t.AddRow(inq[i].BER.Label, inq[i].FailRate, pf, cf)
	}
	return t
}

// Fig5Waveforms simulates the creation of a piconet with one master and
// three slaves, dumping the RF-enable waveforms to w as VCD (Fig 5).
// It returns the number of master-side links for verification.
func Fig5Waveforms(w io.Writer, seed uint64) (links int, err error) {
	s := core.NewSimulation(core.Options{Seed: seed, TraceTo: w})
	m := s.AddDevice("master", baseband.Config{Addr: baseband.BDAddr{LAP: 0x101000, UAP: 1}})
	s1 := s.AddDevice("slave1", baseband.Config{Addr: baseband.BDAddr{LAP: 0x202000, UAP: 2}})
	s2 := s.AddDevice("slave2", baseband.Config{Addr: baseband.BDAddr{LAP: 0x303000, UAP: 3}})
	s3 := s.AddDevice("slave3", baseband.Config{Addr: baseband.BDAddr{LAP: 0x404000, UAP: 4}})
	ls := s.BuildPiconet(m, s1, s2, s3)
	// Run on with light traffic so the polling waveform shows.
	ls[0].Send([]byte("fig5"), packet.LLIDL2CAPStart)
	s.RunSlots(400)
	return len(ls), s.Close()
}

// Fig9Waveforms simulates two slaves entering sniff mode (Fig 9),
// dumping waveforms to w. sniffSlots is Tsniff; the paper used a short
// sniff timeout of 2 slots, here the attempt window.
func Fig9Waveforms(w io.Writer, sniffSlots, attempt int, seed uint64) error {
	s := core.NewSimulation(core.Options{Seed: seed, TraceTo: w})
	m := s.AddDevice("master", baseband.Config{Addr: baseband.BDAddr{LAP: 0x111000, UAP: 1}})
	s1 := s.AddDevice("slave1", baseband.Config{Addr: baseband.BDAddr{LAP: 0x222000, UAP: 2}})
	s2 := s.AddDevice("slave2", baseband.Config{Addr: baseband.BDAddr{LAP: 0x333000, UAP: 3}})
	s3 := s.AddDevice("slave3", baseband.Config{Addr: baseband.BDAddr{LAP: 0x444000, UAP: 4}})
	links := s.BuildPiconet(m, s1, s2, s3)
	// Slaves 2 and 3 enter sniff (both ends), slave 1 stays active.
	for _, i := range []int{1, 2} {
		links[i].EnterSniff(sniffSlots, attempt, 0)
		slaves := []*baseband.Device{s1, s2, s3}
		slaves[i].MasterLink().EnterSniff(sniffSlots, attempt, 0)
	}
	s.RunSlots(600)
	return s.Close()
}

// Fig10Row is one duty-cycle point of the master-activity figure.
type Fig10Row struct {
	DutyCycle  float64
	TxActivity float64
	RxActivity float64
}

// Fig10MasterActivity measures the master's RF activity as a function of
// the channel duty cycle (fraction of the master's transmit slots that
// carry data). The paper's Fig 10: both curves linear, TX above RX,
// fractions of a percent.
func Fig10MasterActivity(duties []float64, measureSlots uint64, seed uint64, cfg ...runner.Config) []Fig10Row {
	sw := runner.Sweep[float64, Fig10Row]{
		Name:   "fig10",
		Points: duties,
		Seed:   func(point, _ int) uint64 { return seed + uint64(duties[point]*1e6) },
		Trial: func(seed uint64, duty float64) Fig10Row {
			// Polls would add activity on top of data; push Tpoll beyond the
			// horizon so the duty cycle alone drives the radio.
			s, m, sl := twoDevicesCfg(seed, 0, func(c *baseband.Config) {
				c.TpollSlots = 1 << 20
			})
			lks := s.BuildPiconet(m, sl)
			l := lks[0]
			l.PacketType = packet.TypeDM1
			if duty > 0 {
				period := uint64(2.0 / duty) // master TX opportunity every 2 slots
				var pump func()
				pump = func() {
					l.Send([]byte{0xAB, 0xCD}, packet.LLIDL2CAPStart)
					m.After(period, pump)
				}
				pump()
			}
			core.ResetMeters(m)
			s.RunSlots(measureSlots)
			tx, rx := core.Activity(m)
			return Fig10Row{DutyCycle: duty, TxActivity: tx, RxActivity: rx}
		},
	}
	return runner.Flatten(sw.Run(oneCfg(cfg)))
}

// Fig10Table renders Fig 10.
func Fig10Table(rows []Fig10Row) *stats.Table {
	t := stats.NewTable("Fig 10: master RF activity vs duty cycle", "duty_cycle", "tx_activity", "rx_activity")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.2f%%", r.DutyCycle*100), r.TxActivity, r.RxActivity)
	}
	return t
}

// Fig11Row is one Tsniff point of the slave-activity figure.
type Fig11Row struct {
	TsniffSlots int
	Active      float64 // slave TX+RX activity in active mode
	Sniff       float64 // same with sniff enabled
}

// Fig11SniffActivity measures slave RF activity (TX+RX) vs Tsniff with
// the master transmitting a DH3 data packet every dataPeriod slots (the
// paper fixes 100). The active-mode value is Tsniff-independent; it is
// measured as the Tsniff=0 point of the same sweep.
func Fig11SniffActivity(tsniffs []int, dataPeriod int, measureSlots uint64, seed uint64, cfg ...runner.Config) []Fig11Row {
	points := append([]int{0}, tsniffs...)
	sw := runner.Sweep[int, float64]{
		Name:   "fig11",
		Points: points,
		Seed:   func(_, _ int) uint64 { return seed },
		Trial: func(seed uint64, tsniff int) float64 {
			// With data every dataPeriod slots, a Tpoll of the same length
			// keeps extra polls out of the measurement (the data is the poll).
			s, m, sl := twoDevicesCfg(seed, 0, func(c *baseband.Config) {
				c.TpollSlots = dataPeriod
			})
			lks := s.BuildPiconet(m, sl)
			l := lks[0]
			l.PacketType = packet.TypeDH3
			if tsniff > 0 {
				l.EnterSniff(tsniff, 2, 0)
				sl.MasterLink().EnterSniff(tsniff, 2, 0)
			}
			var pump func()
			pump = func() {
				if l.QueueLen() == 0 {
					l.Send(make([]byte, packet.TypeDH3.MaxPayload()), packet.LLIDL2CAPStart)
				}
				m.After(uint64(dataPeriod), pump)
			}
			pump()
			s.RunSlots(uint64(dataPeriod) * 2) // warm up one period
			core.ResetMeters(sl)
			s.RunSlots(measureSlots)
			tx, rx := core.Activity(sl)
			return tx + rx
		},
	}
	acts := runner.Flatten(sw.Run(oneCfg(cfg)))
	active := acts[0]
	out := make([]Fig11Row, 0, len(tsniffs))
	for i, t := range tsniffs {
		out = append(out, Fig11Row{TsniffSlots: t, Active: active, Sniff: acts[i+1]})
	}
	return out
}

// Fig11Table renders Fig 11.
func Fig11Table(rows []Fig11Row) *stats.Table {
	t := stats.NewTable("Fig 11: slave RF activity (TX+RX) vs Tsniff (data every 100 TS)",
		"Tsniff_slots", "active", "sniff", "saving")
	for _, r := range rows {
		saving := 0.0
		if r.Active > 0 {
			saving = 1 - r.Sniff/r.Active
		}
		t.AddRow(r.TsniffSlots, r.Active, r.Sniff, saving)
	}
	return t
}

// Fig12Row is one Thold point of the hold figure.
type Fig12Row struct {
	TholdSlots int
	Active     float64
	Hold       float64
}

// Fig12HoldActivity measures slave RF activity vs Thold with no user
// data: active mode costs the carrier-sense windows plus the master's
// periodic sync polls (the paper's flat 2.6%), hold costs one resync
// listen per cycle. Active mode is the Thold=0 point of the same sweep.
func Fig12HoldActivity(tholds []int, measureSlots uint64, seed uint64, cfg ...runner.Config) []Fig12Row {
	points := append([]int{0}, tholds...)
	sw := runner.Sweep[int, float64]{
		Name:   "fig12",
		Points: points,
		Seed:   func(_, _ int) uint64 { return seed },
		Trial: func(seed uint64, thold int) float64 {
			s, m, sl := twoDevices(seed, 0)
			lks := s.BuildPiconet(m, sl)
			if thold > 0 {
				lks[0].EnterHoldRepeating(thold)
				sl.MasterLink().EnterHoldRepeating(thold)
				// Let at least one full cycle pass before measuring.
				s.RunSlots(uint64(thold) + 32)
			} else {
				s.RunSlots(64)
			}
			core.ResetMeters(sl)
			s.RunSlots(measureSlots)
			tx, rx := core.Activity(sl)
			return tx + rx
		},
	}
	acts := runner.Flatten(sw.Run(oneCfg(cfg)))
	active := acts[0]
	out := make([]Fig12Row, 0, len(tholds))
	for i, th := range tholds {
		out = append(out, Fig12Row{TholdSlots: th, Active: active, Hold: acts[i+1]})
	}
	return out
}

// Fig12Table renders Fig 12.
func Fig12Table(rows []Fig12Row) *stats.Table {
	t := stats.NewTable("Fig 12: slave RF activity (TX+RX) vs Thold (no data)",
		"Thold_slots", "active", "hold")
	for _, r := range rows {
		t.AddRow(r.TholdSlots, r.Active, r.Hold)
	}
	return t
}
