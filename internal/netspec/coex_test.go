package netspec

import (
	"slices"
	"testing"

	"repro/internal/hop"
)

// Coexistence-engine behaviour the figure sweeps in internal/experiments
// do not pin: adaptive classification converging on, respecting the
// spec floor under, and recovering from a jammer; round-robin fairness
// across the slaves of one saturated piconet; collision attribution
// across piconets; and the measurement-window reset.

// saturated declares the piconets under a saturating bulk pump, with
// data as the only poll.
func saturated(piconets ...Piconet) Spec {
	for i := range piconets {
		piconets[i].TpollSlots = TpollNever
	}
	return Spec{Piconets: piconets, Traffic: []Traffic{{Kind: TrafficBulk, Piconet: AllPiconets}}}
}

func TestAdaptiveClassifierLearnsJammedBand(t *testing.T) {
	const lo, hi = 30, 52
	w := world(t, 3, saturated(Piconet{Slaves: 1, AFH: AFHAdaptive, AssessWindowSlots: 1500}))
	w.Sim.Ch.AddJammer(lo, hi, 0.9)
	w.Start()
	// Two windows plus the LMP switch instant.
	w.Sim.RunSlots(ConvergenceSlots(1500))
	p := w.Piconets[0]
	cm := p.CurrentMap()
	if cm == nil {
		t.Fatal("classifier never installed a map")
	}
	if p.MapUpdates == 0 {
		t.Fatal("MapUpdates not counted")
	}
	excluded := 0
	for ch := lo; ch <= hi; ch++ {
		if !cm.Used(ch) {
			excluded++
		}
	}
	if excluded < (hi-lo+1)*8/10 {
		t.Fatalf("learned map excludes only %d/%d jammed channels", excluded, hi-lo+1)
	}
	// Clean channels must stay in the map.
	keptClean := 0
	for ch := 0; ch < hop.NumChannels; ch++ {
		if (ch < lo || ch > hi) && cm.Used(ch) {
			keptClean++
		}
	}
	if keptClean < (hop.NumChannels-(hi-lo+1))*9/10 {
		t.Fatalf("learned map dropped clean channels: only %d kept", keptClean)
	}
	// Both ends must actually hop on the learned map (LMP installed it).
	if p.Master.AFHMap() == nil || p.Slaves[0].AFHMap() == nil {
		t.Fatal("map not installed on both ends over LMP")
	}
}

func TestMinimumChannelSetRespected(t *testing.T) {
	// Jam almost the whole band: the classifier must keep at least the
	// spec minimum of 20 channels rather than panic in NewChannelMap.
	w := world(t, 9, saturated(Piconet{Slaves: 1, AFH: AFHAdaptive, AssessWindowSlots: 1500}))
	w.Sim.Ch.AddJammer(0, 74, 0.95)
	w.Start()
	w.Sim.RunSlots(4 * 1500)
	cm := w.Piconets[0].CurrentMap()
	if cm == nil {
		t.Skip("classifier saw too few observations to act") // extremely hostile band
	}
	if cm.N() < hop.MinAFHChannels {
		t.Fatalf("map has %d channels, below the spec minimum %d", cm.N(), hop.MinAFHChannels)
	}
}

func TestReprobeReadmitsAfterJammerLeaves(t *testing.T) {
	// A bad verdict must not outlive its evidence forever: once the
	// jammer goes away, the re-probe mechanism re-admits the band and
	// the next window confirms it clean.
	const lo, hi = 30, 52
	w := world(t, 15, saturated(Piconet{
		Slaves: 1, AFH: AFHAdaptive, AssessWindowSlots: 1000, ReprobeWindows: 3,
	}))
	w.Sim.Ch.AddJammer(lo, hi, 0.9)
	w.Start()
	w.Sim.RunSlots(ConvergenceSlots(1000))
	if w.Piconets[0].CurrentMap() == nil {
		t.Fatal("classifier never excluded the jammed band")
	}
	w.Sim.Ch.ClearJammers()
	// Three silent windows to trigger the re-probe, one to confirm the
	// channels clean, plus the LMP switch instant.
	w.Sim.RunSlots(5*1000 + 600)
	cm := w.Piconets[0].CurrentMap()
	readmitted := 0
	for ch := lo; ch <= hi; ch++ {
		if cm == nil || cm.Used(ch) {
			readmitted++
		}
	}
	if readmitted < (hi-lo+1)*8/10 {
		t.Fatalf("only %d/%d formerly-jammed channels re-admitted after the jammer left", readmitted, hi-lo+1)
	}
}

func TestMultiSlaveFairness(t *testing.T) {
	// Saturating pumps on every link must not let AM_ADDR 1 monopolise
	// the master's transmit slots: the round-robin scheduler has to give
	// every slave a comparable share.
	w := world(t, 27, saturated(Piconet{Slaves: 3}))
	w.Start()
	w.Sim.RunSlots(64)
	w.ResetMetrics()
	w.Sim.RunSlots(6000)
	p := w.Piconets[0]
	total := 0
	for _, r := range p.Received {
		total += r
	}
	if total == 0 {
		t.Fatal("no traffic delivered")
	}
	for j, r := range p.Received {
		share := float64(r) / float64(total)
		if share < 0.2 {
			t.Fatalf("slave %d starved: got %d/%d bytes (share %.2f)", j+1, r, total, share)
		}
	}
}

func TestFourPiconetsCollideAcrossPiconets(t *testing.T) {
	w := world(t, 7, saturated(slices.Repeat([]Piconet{{Slaves: 1}}, 4)...))
	w.Start()
	w.Sim.RunSlots(64)
	w.ResetMetrics()
	w.Sim.RunSlots(4000)
	m := w.Metrics()
	for i, p := range w.Piconets {
		if len(p.Links) != 1 {
			t.Fatalf("piconet %d has %d links", i, len(p.Links))
		}
		if m.PerPiconet[i] == 0 {
			t.Fatalf("piconet %d delivered nothing", i)
		}
	}
	if m.Inter == 0 {
		t.Fatal("four uncoordinated piconets must collide across piconets")
	}
	// TDD inside a piconet leaves essentially no room for intra-piconet
	// overlap; inter-piconet pairs must dominate.
	if m.Intra > m.Inter {
		t.Fatalf("intra collisions (%d) exceed inter (%d)", m.Intra, m.Inter)
	}
}

func TestResetMetricsOpensFreshWindow(t *testing.T) {
	w := world(t, 13, saturated([]Piconet{{Slaves: 1}, {Slaves: 1}}...))
	w.Start()
	w.Sim.RunSlots(2000)
	if w.Metrics().Bytes == 0 {
		t.Fatal("no traffic before reset")
	}
	w.ResetMetrics()
	m := w.Metrics()
	if m.Bytes != 0 || m.Inter != 0 || m.Intra != 0 || m.Retransmits != 0 {
		t.Fatalf("reset left residue: %+v", m)
	}
}
