package netspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
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
// totals, the channel's clean-delivery and materialisation counts over
// the window, and the full Metrics JSON.
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
	st := w.Sim.Ch.Stats()
	out += fmt.Sprintf("channel clean=%d materialized=%d\n",
		st.CleanDeliveries-w.chBase.CleanDeliveries, st.Materialized-w.chBase.Materialized)
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

	restored := restoreCkWorld(t, ck, 0)
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

	// A second fork stays byte-equal, here through the wire form: the
	// capture still restores after the straight arm ran on, and
	// Encode -> DecodeCheckpoint loses nothing a restore reads...
	enc, err := ck.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dck, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	again := restoreCkWorld(t, dck, 0)
	again.ResetMetrics()
	again.Sim.RunSlots(rest)
	if c := worldFingerprint(t, again); b != c {
		t.Errorf("in-memory and decoded forks diverge:\n--- in memory\n%s\n--- decoded\n%s", b, c)
	}

	// ...while a different fork seed diverges under nonzero BER.
	other := restoreCkWorld(t, ck, 99)
	other.ResetMetrics()
	other.Sim.RunSlots(rest)
	if d := worldFingerprint(t, other); b == d {
		t.Error("fork seed 99 did not diverge from seed 0")
	}
}

// TestSharedCaptureRestores pins what lets every fork path hand one
// *WorldCheckpoint around: restores running concurrently from a single
// capture, while the source world runs on, each match a restore from a
// private decoded copy, and the capture encodes to the same bytes
// afterwards. Runs under -race in CI; cmd/btsim's test of the same
// name covers the fork matrix's worlds.
func TestSharedCaptureRestores(t *testing.T) {
	const rest = 600
	seeds := []uint64{0, 0, 99, 99}
	for name, spec := range ckSpecs() {
		t.Run(name, func(t *testing.T) {
			w := buildCkWorld(t, spec)
			w.Sim.RunSlots(400)
			ck, err := w.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			before, err := ck.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			fork := func(ck *WorldCheckpoint, forkSeed uint64) (*World, error) {
				fw, err := RestoreWorld(core.NewSimulation(ckOptions(11)), ck, core.RestoreOptions{ForkSeed: forkSeed})
				if err != nil {
					return nil, err
				}
				fw.ResetMetrics()
				fw.Sim.RunSlots(rest)
				return fw, nil
			}

			forks := make([]*World, len(seeds))
			errs := make([]error, len(seeds))
			var wg sync.WaitGroup
			wg.Add(len(seeds) + 1)
			go func() {
				defer wg.Done()
				w.Sim.RunSlots(rest)
			}()
			for i, seed := range seeds {
				go func() {
					defer wg.Done()
					forks[i], errs[i] = fork(ck, seed)
				}()
			}
			wg.Wait()

			for i, seed := range seeds {
				if errs[i] != nil {
					t.Fatalf("shared restore %d: %v", i, errs[i])
				}
				dck, err := DecodeCheckpoint(before)
				if err != nil {
					t.Fatalf("DecodeCheckpoint: %v", err)
				}
				private, err := fork(dck, seed)
				if err != nil {
					t.Fatalf("private restore: %v", err)
				}
				if a, b := worldFingerprint(t, forks[i]), worldFingerprint(t, private); a != b {
					t.Errorf("shared restore %d (seed %d) diverges from a private copy:\n--- shared\n%s\n--- private\n%s", i, seed, a, b)
				}
			}
			after, err := ck.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if !bytes.Equal(before, after) {
				t.Error("restores or the source world changed the shared capture")
			}
		})
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
