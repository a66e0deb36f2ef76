package netspec

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// ckSpecs are deliberately busy worlds covering every pump kind and
// every stateful subsystem the checkpoint must carry. Bulk/poisson ACL
// pumps cannot share a world with bridges (validation routes relay
// traffic through flows), so two specs split the coverage: a dense
// multi-piconet world with saturating unprotected bulk (bit errors
// keep consuming the channel RNG across the snapshot point), poisson
// bursts, voice and an adaptive classifier; and a bridged scatternet
// with an end-to-end flow and voice.
func ckSpecs() map[string]Spec {
	return map[string]Spec{
		"dense": {
			Piconets: []Piconet{
				{Slaves: 2, TpollSlots: TpollNever},
				{Slaves: 2, TpollSlots: TpollNever, AFH: AFHAdaptive, AssessWindowSlots: 300},
			},
			Traffic: []Traffic{
				{Kind: TrafficBulk, Piconet: 0, PacketType: packet.TypeDH1, PumpDepth: 3},
				{Kind: TrafficPoisson, Piconet: 1, MeanGapSlots: 40, BurstBytes: 128},
				{Kind: TrafficVoice, Piconet: 0, Slave: 1},
			},
		},
		"bridged": {
			Piconets: []Piconet{
				{Slaves: 2, TpollSlots: 64},
				{Slaves: 2, TpollSlots: 64},
			},
			Bridges: []Bridge{{A: 0, B: 1}},
			Traffic: []Traffic{
				{Kind: TrafficVoice, Piconet: 0, Slave: 2},
				{Kind: TrafficFlow, From: "p0.master", To: "p1.slave1", SDUBytes: 64, PumpDepth: 2},
			},
		},
	}
}

func ckOptions(seed uint64) core.Options {
	return core.Options{Seed: seed, BER: 1.0 / 500}
}

func buildCkWorld(t testing.TB, spec Spec) *World {
	t.Helper()
	s := core.NewSimulation(ckOptions(11))
	w, err := Build(s, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Start()
	return w
}

// worldFingerprint folds every observable surface into one string:
// per-device counters and meter activity, per-link queue and data
// totals, and the full Metrics JSON.
func worldFingerprint(t testing.TB, w *World) string {
	t.Helper()
	out := ""
	for _, d := range w.Sim.Devices() {
		tx, rx := core.Activity(d)
		out += fmt.Sprintf("%s %+v tx=%.9f rx=%.9f\n", d.Name(), d.Counters, tx, rx)
		links := d.Links()
		for am := uint8(1); am <= 7; am++ {
			if l := links[am]; l != nil {
				out += fmt.Sprintf("  link %v q=%d tx=%d rx=%d\n", l.Peer, l.QueueLen(), l.TxData, l.RxData)
			}
		}
		if l := d.MasterLink(); l != nil {
			out += fmt.Sprintf("  mlink %v q=%d tx=%d rx=%d\n", l.Peer, l.QueueLen(), l.TxData, l.RxData)
		}
	}
	m, err := json.Marshal(w.Metrics())
	if err != nil {
		t.Fatalf("Metrics marshal: %v", err)
	}
	return out + string(m)
}

func restoreCkWorld(t testing.TB, ck *WorldCheckpoint, forkSeed uint64) *World {
	t.Helper()
	s := core.NewSimulation(ckOptions(11))
	w, err := RestoreWorld(s, ck, core.RestoreOptions{ForkSeed: forkSeed})
	if err != nil {
		t.Fatalf("RestoreWorld: %v", err)
	}
	return w
}

func TestWorldCheckpointForkEquivalence(t *testing.T) {
	for name, spec := range ckSpecs() {
		t.Run(name, func(t *testing.T) { testForkEquivalence(t, spec) })
	}
}

func testForkEquivalence(t *testing.T, spec Spec) {
	const settle, rest = 400, 600

	w := buildCkWorld(t, spec)
	w.Sim.RunSlots(settle)
	ck, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Snapshot is read-only (the probe may advance time); w continues
	// as the straight arm from the capture instant.
	if got, want := w.Sim.K.Now(), ck.Core.At; got != want {
		t.Fatalf("straight arm at %v, capture at %v", got, want)
	}

	// Round-trip through bytes: the wire format is the product surface.
	enc, err := ck.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dck, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}

	restored := restoreCkWorld(t, dck, 0)
	if got, want := restored.Sim.K.Now(), ck.Core.At; got != want {
		t.Fatalf("restored clock at %v, want %v", got, want)
	}

	// The measurement protocol: both arms open a fresh window at the
	// fork instant, then run the same horizon.
	w.ResetMetrics()
	restored.ResetMetrics()
	w.Sim.RunSlots(rest)
	restored.Sim.RunSlots(rest)
	a, b := worldFingerprint(t, w), worldFingerprint(t, restored)
	if a != b {
		t.Errorf("straight and restored runs diverge:\n--- straight\n%s\n--- restored\n%s", a, b)
	}

	// A second fork from the same bytes stays byte-equal...
	dck2, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("DecodeCheckpoint (second): %v", err)
	}
	again := restoreCkWorld(t, dck2, 0)
	again.ResetMetrics()
	again.Sim.RunSlots(rest)
	if c := worldFingerprint(t, again); b != c {
		t.Errorf("two identical forks diverge:\n--- first\n%s\n--- second\n%s", b, c)
	}

	// ...while a different fork seed diverges under nonzero BER.
	dck3, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("DecodeCheckpoint (third): %v", err)
	}
	other := restoreCkWorld(t, dck3, 99)
	other.ResetMetrics()
	other.Sim.RunSlots(rest)
	if d := worldFingerprint(t, other); b == d {
		t.Error("fork seed 99 did not diverge from seed 0")
	}
}

// TestDecodeRejectsForeignFlows pins the decode contract for the flow
// list: a capture whose flows are not its spec's flow stanzas fails
// DecodeCheckpoint instead of panicking in RestoreWorld.
func TestDecodeRejectsForeignFlows(t *testing.T) {
	w := buildCkWorld(t, ckSpecs()["bridged"])
	w.Sim.RunSlots(500)
	ck, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	ck.Flows[0].From = "nobody"
	b, err := ck.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := DecodeCheckpoint(b); err == nil {
		t.Fatal("checkpoint with a flow from an unknown device decoded clean")
	}
}

// FuzzCheckpointRoundTrip pins the decode contract: arbitrary bytes
// either fail with an error or produce a validated checkpoint — never
// a panic.
func FuzzCheckpointRoundTrip(f *testing.F) {
	s := core.NewSimulation(core.Options{Seed: 3})
	w, err := Build(s, Spec{
		Piconets: []Piconet{{Slaves: 1, TpollSlots: 64}},
		Traffic:  []Traffic{{Kind: TrafficBulk, Piconet: 0}},
	})
	if err != nil {
		f.Fatalf("Build: %v", err)
	}
	w.Start()
	s.RunSlots(64)
	if ck, err := w.Snapshot(); err == nil {
		if b, err := ck.Encode(); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err == nil && ck == nil {
			t.Fatal("nil checkpoint without error")
		}
	})
}
