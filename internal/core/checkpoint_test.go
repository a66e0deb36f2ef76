package core

import (
	"fmt"
	"testing"

	"repro/internal/baseband"
	"repro/internal/packet"
	"repro/internal/sim"
)

// fingerprint folds the observable state of every device into a string:
// counters, meter activity, link ARQ positions and data totals.
func fingerprint(s *Simulation) string {
	out := ""
	for _, d := range s.Devices() {
		tx, rx := Activity(d)
		out += fmt.Sprintf("%s %+v tx=%.9f rx=%.9f clkn=%d\n",
			d.Name(), d.Counters, tx, rx, d.Clock.CLKN(s.K.Now()))
		links := d.Links()
		for am := uint8(1); am <= 7; am++ {
			if l := links[am]; l != nil {
				out += fmt.Sprintf("  link %v tx=%d rx=%d\n", l.Peer, l.TxData, l.RxData)
			}
		}
		if l := d.MasterLink(); l != nil {
			out += fmt.Sprintf("  mlink %v tx=%d rx=%d\n", l.Peer, l.TxData, l.RxData)
		}
	}
	return out
}

// buildWorld assembles a noisy two-slave piconet with a deep backlog of
// unprotected DH1 traffic, so bit errors (and the retransmissions they
// cause) keep consuming the channel RNG across the snapshot point.
func buildWorld() *Simulation {
	s := NewSimulation(Options{Seed: 7, BER: 1.0 / 600})
	m := s.AddDevice("m", baseband.Config{Addr: baseband.BDAddr{LAP: 0x10, UAP: 1}})
	s1 := s.AddDevice("s1", baseband.Config{Addr: baseband.BDAddr{LAP: 0x21, UAP: 2}})
	s2 := s.AddDevice("s2", baseband.Config{Addr: baseband.BDAddr{LAP: 0x22, UAP: 3}})
	for _, l := range s.BuildPiconet(m, s1, s2) {
		l.PacketType = packet.TypeDH1
		l.Send(make([]byte, 4000), packet.LLIDL2CAPStart)
	}
	return s
}

func TestCheckpointForkEquivalence(t *testing.T) {
	// Fork on an even (master) slot and on the odd slot after it,
	// where the slave's response to that master packet is due.
	for _, settle := range []uint64{200, 201} {
		t.Run(fmt.Sprintf("settle=%d", settle), func(t *testing.T) {
			const rest = 300

			straight := buildWorld()
			straight.RunSlots(settle)
			ckAt := straight.K.Now()

			forked := buildWorld()
			forked.RunSlots(settle)
			ck, err := forked.Snapshot(nil, nil)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if ck.At != ckAt {
				// The probe may have stepped forward; keep arms aligned.
				straight.K.RunUntil(ck.At)
			}

			restored := NewSimulation(Options{Seed: 7, BER: 1.0 / 600})
			if err := restore(restored, ck, RestoreOptions{}); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got, want := restored.K.Now(), ck.At; got != want {
				t.Fatalf("restored clock at %v, want %v", got, want)
			}

			// The measurement protocol: both arms restart their meter
			// windows at the fork point, so activity fractions measure
			// only post-fork behaviour.
			resetAll(straight)
			resetAll(restored)
			straight.RunSlots(rest)
			restored.RunSlots(rest)
			if a, b := fingerprint(straight), fingerprint(restored); a != b {
				t.Errorf("straight and restored runs diverge:\n--- straight\n%s--- restored\n%s", a, b)
			}

			// A second fork from the same bytes stays byte-equal...
			again := NewSimulation(Options{Seed: 7, BER: 1.0 / 600})
			if err := restore(again, ck, RestoreOptions{}); err != nil {
				t.Fatalf("Restore twice: %v", err)
			}
			resetAll(again)
			again.RunSlots(rest)
			if a, b := fingerprint(restored), fingerprint(again); a != b {
				t.Errorf("two identical forks diverge:\n--- first\n%s--- second\n%s", a, b)
			}

			// ...while a different fork seed diverges under nonzero BER.
			other := NewSimulation(Options{Seed: 7, BER: 1.0 / 600})
			if err := restore(other, ck, RestoreOptions{ForkSeed: 99}); err != nil {
				t.Fatalf("Restore forked: %v", err)
			}
			resetAll(other)
			other.RunSlots(rest)
			if a, b := fingerprint(restored), fingerprint(other); a == b {
				t.Errorf("fork seed 99 did not diverge from seed 0")
			}
		})
	}
}

// restore imposes ck on the fresh world s and arms its captured timers.
func restore(s *Simulation, ck *Checkpoint, opt RestoreOptions) error {
	set := &sim.RearmSet{}
	if _, err := s.Restore(ck, opt, set); err != nil {
		return err
	}
	set.Execute()
	return nil
}

func resetAll(s *Simulation) {
	for _, d := range s.Devices() {
		ResetMeters(d)
	}
}

// TestRestoreRejectsBadTimerIndex: a captured timer arm names its timer
// by index; an index outside the device's timer list fails the restore
// with an error instead of panicking.
func TestRestoreRejectsBadTimerIndex(t *testing.T) {
	s := buildWorld()
	s.RunSlots(200)
	ck, err := s.Snapshot(nil, nil)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	arms := ck.Devices[0].State.Timers
	if len(arms) == 0 {
		t.Fatal("test premise broken: the master has no armed timer")
	}
	for _, bad := range []int{-1, 1 << 20} {
		arms[0].Timer = bad
		if err := restore(NewSimulation(Options{Seed: 7, BER: 1.0 / 600}), ck, RestoreOptions{}); err == nil {
			t.Errorf("restore with timer index %d succeeded", bad)
		}
	}
}

func TestSnapshotRefusesVCDTrace(t *testing.T) {
	s := NewSimulation(Options{Seed: 1, TraceTo: discard{}})
	if _, err := s.Snapshot(nil, nil); err == nil {
		t.Fatal("Snapshot of a VCD-traced world should fail")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
