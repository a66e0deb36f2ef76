package netspec

import "testing"

// Scatternet relay behaviour the duty-cycle sweep in
// internal/experiments does not pin: latency and queue accounting on
// one bridge, a flow against the default direction, a two-bridge
// chain, and rapid timesharing boundaries.

// relayed runs a started bridged world through three presence periods
// of settling, opens a fresh window and returns its metrics after
// slots more.
func relayed(t *testing.T, seed uint64, spec Spec, slots uint64) (*World, Metrics) {
	t.Helper()
	w := world(t, seed, spec)
	w.Start()
	w.Sim.RunSlots(uint64(3 * spec.Resolved().Bridges[0].PresencePeriodSlots))
	w.ResetMetrics()
	w.Sim.RunSlots(slots)
	return w, w.Metrics()
}

func TestBridgeDeliversAcrossPiconets(t *testing.T) {
	spec := Spec{
		Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
		Bridges:  []Bridge{{A: 0, B: 1}},
		Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(1, 1)}},
	}
	w, m := relayed(t, 7, spec, 8000)
	if m.EndToEndBytes == 0 {
		t.Fatal("no end-to-end delivery across the bridge")
	}
	if m.RouteMisses != 0 {
		t.Fatalf("%d route misses", m.RouteMisses)
	}
	if m.ForwardedFrames == 0 {
		t.Fatal("bridge forwarded nothing")
	}
	// The radio must actually have timeshared: 8000 slots / half-period
	// of 128 slots is ~62 boundaries.
	if m.MembershipSwitches < 40 {
		t.Fatalf("only %d membership switches over 8000 slots", m.MembershipSwitches)
	}
	// With a saturating source the bounded queue pins the forwarding
	// latency near capacity/drain-rate; far beyond that means the bound
	// stopped working and the queue diverged.
	b := spec.Resolved().Bridges[0]
	maxLat := float64(b.MaxQueueFrames) * float64(b.PresencePeriodSlots) / 4
	if fwd := m.FwdLatency.Mean(); fwd <= 0 || fwd > maxLat {
		t.Fatalf("forwarding latency %v slots implausible (bound %v)", fwd, maxLat)
	}
	if m.E2ELatency.Mean() < m.FwdLatency.Mean() {
		t.Fatalf("end-to-end latency %v below bridge latency %v", m.E2ELatency.Mean(), m.FwdLatency.Mean())
	}
	if m.Queue.Max == 0 {
		t.Fatal("queue gauge never saw the backlog")
	}
	if f := w.Flows[0]; f.DeliveredBytes != m.EndToEndBytes {
		t.Fatalf("flow accounting (%d) disagrees with world accounting (%d)", f.DeliveredBytes, m.EndToEndBytes)
	}
}

func TestReverseFlowUsesOppositeWindows(t *testing.T) {
	_, m := relayed(t, 11, Spec{
		Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
		Bridges:  []Bridge{{A: 0, B: 1}},
		Traffic:  []Traffic{{Kind: TrafficFlow, From: SlaveName(1, 1), To: MasterName(0)}},
	}, 8000)
	if m.EndToEndBytes == 0 {
		t.Fatal("reverse flow delivered nothing")
	}
	if m.RouteMisses != 0 {
		t.Fatalf("%d route misses", m.RouteMisses)
	}
}

func TestChainOfThreePiconets(t *testing.T) {
	w, m := relayed(t, 13, Spec{
		Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}, {Slaves: 1}},
		Bridges:  ChainBridges(3, Bridge{}),
		Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(2, 1)}},
	}, 12000)
	if len(w.Bridges) != 2 {
		t.Fatalf("chain of 3 needs 2 bridges, got %d", len(w.Bridges))
	}
	if m.EndToEndBytes == 0 {
		t.Fatal("no delivery across a two-bridge chain")
	}
	for _, b := range w.Bridges {
		if b.Forwarded == 0 {
			t.Fatalf("bridge %d forwarded nothing", b.Index)
		}
	}
}

// TestShortPeriodBoundaries stresses the retune boundary: with a 64-slot
// period the bridge switches piconets every 32 slots, so mid-exchange
// abandons happen constantly and everything must still flow.
func TestShortPeriodBoundaries(t *testing.T) {
	_, m := relayed(t, 19, Spec{
		Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
		Bridges:  []Bridge{{A: 0, B: 1, PresencePeriodSlots: 64, PresenceDuty: 1, GuardEvenSlots: 2}},
		Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(1, 1)}},
	}, 8000)
	if m.EndToEndBytes == 0 {
		t.Fatal("no delivery under rapid timesharing")
	}
	if m.MembershipSwitches < 200 {
		t.Fatalf("only %d switches with a 64-slot period", m.MembershipSwitches)
	}
}
