package core

import (
	"fmt"

	"repro/internal/baseband"
	"repro/internal/sim"
)

// Checkpoint/restore for the core façade: a warmed-up world is captured
// once at a quiescent slot edge and any number of replicas or what-if
// arms fork from the capture, skipping the settle phase entirely.
//
// The contract is exactness: a restored world with ForkSeed 0 produces
// the byte-identical event sequence a straight run would have from the
// snapshot instant onward. Three properties make this possible:
//
//  1. Quiescence. Snapshot runs only when no transmission is in flight,
//     every device sits in STANDBY or CONNECTION with nothing mid-air
//     or mid-handshake, and (via Snapshot's quiescent predicate) no
//     upper layer has a transaction open. Everything that remains is
//     plain state plus pending timers.
//
//  2. Re-arm ordering. Every pending event's (at, seq) position is
//     captured; restore re-arms them through one sim.RearmSet, which
//     replays the arms in ascending captured (at, seq) order on the
//     fresh kernel. Fresh sequence numbers are assigned monotonically,
//     so every relative ordering — among re-armed events and against
//     anything scheduled later — is preserved (see sim/checkpoint.go).
//
//  3. Stream positions. Every RNG's exact position is captured, and
//     ForkState either resumes it (ForkSeed 0) or perturbs every stream
//     of the arm uniformly, making forks diverge by seed.

// DeviceEntry pairs a device name with its captured state, in creation
// order.
type DeviceEntry struct {
	Name  string
	State *baseband.DeviceCheckpoint
}

// Checkpoint is a full capture of a Simulation at a quiescent instant.
// Upper layers (netspec worlds, traffic pumps) wrap it with their own
// state; this layer owns the kernel clock, RNG streams and devices.
type Checkpoint struct {
	At      sim.Time
	Seed    uint64
	RootRNG uint64
	ChanRNG uint64
	Devices []DeviceEntry
}

// maxProbeSlots bounds how far Snapshot may run the world forward
// looking for a quiescent slot edge.
const maxProbeSlots = 4096

// RestoreOptions tunes a restore.
type RestoreOptions struct {
	// ForkSeed perturbs every RNG stream of the restored arm; zero
	// resumes the captured streams exactly (see sim.ForkState).
	ForkSeed uint64
}

// quiescentBlocker names what blocks a core-level capture right now, or
// returns "".
func (s *Simulation) quiescentBlocker() string {
	if n := s.Ch.InFlight(); n != 0 {
		return fmt.Sprintf("%d transmissions in flight", n)
	}
	for _, name := range s.order {
		if !s.devices[name].Quiescent() {
			return name + " not quiescent"
		}
	}
	return ""
}

// Quiescent reports whether the world is capturable at this instant.
func (s *Simulation) Quiescent() bool { return s.quiescentBlocker() == "" }

// Snapshot captures the world at the nearest quiescent slot edge,
// probing forward slot by slot if the current instant is busy. extra
// lists, per device name, detached links that must ride the device's
// capture (a scatternet bridge's suspended memberships); quiescent,
// when non-nil, adds an upper-layer predicate (e.g. "no LMP
// transaction open") to the probe.
func (s *Simulation) Snapshot(extra map[string][]*baseband.Link, quiescent func() bool) (*Checkpoint, error) {
	if s.trace != nil {
		return nil, fmt.Errorf("core: cannot snapshot a VCD-traced world")
	}
	for probed := uint64(0); ; probed++ {
		blocker := s.quiescentBlocker()
		if blocker == "" && (quiescent == nil || quiescent()) {
			break
		}
		if blocker == "" {
			blocker = "upper layer busy"
		}
		if probed >= maxProbeSlots {
			return nil, fmt.Errorf("core: no quiescent edge within %d slots: %s", maxProbeSlots, blocker)
		}
		s.RunSlots(1)
	}
	ck := &Checkpoint{
		At:      s.K.Now(),
		Seed:    s.seed,
		RootRNG: s.rng.State(),
		ChanRNG: s.Ch.RNGState(),
	}
	for _, name := range s.order {
		dc, err := s.devices[name].Checkpoint(extra[name])
		if err != nil {
			return nil, err
		}
		ck.Devices = append(ck.Devices, DeviceEntry{Name: name, State: dc})
	}
	return ck, nil
}

// Restore imposes ck on a freshly built Simulation (same Options; for a
// spatial world, EnableSpatial and Place must already have run). It
// returns each device's restored links in capture order, keyed by
// device name, so upper layers can re-attach their per-link state.
// The devices' pending timers are added to set, not armed: upper layers
// add their own pending events and execute the set once, which replays
// every re-arm in the global captured order.
func (s *Simulation) Restore(ck *Checkpoint, opt RestoreOptions, set *sim.RearmSet) (map[string][]*baseband.Link, error) {
	if len(s.order) != 0 || s.K.Now() != 0 {
		return nil, fmt.Errorf("core: restore target is not a fresh world")
	}
	if s.trace != nil {
		return nil, fmt.Errorf("core: cannot restore into a VCD-traced world")
	}
	// Jump the clock first: the kernel queue is empty, so RunUntil lands
	// exactly on the snapshot instant, and every construction-time trace
	// record carries t == ck.At (a restore artifact, filtered by the
	// equivalence harness).
	s.K.RunUntil(ck.At)
	links := make(map[string][]*baseband.Link, len(ck.Devices))
	for _, e := range ck.Devices {
		d := s.addDevice(e.Name, e.State.Config)
		ls, err := d.RestoreCheckpoint(e.State, opt.ForkSeed, set)
		if err != nil {
			return nil, err
		}
		links[e.Name] = ls
	}
	s.rng.SetState(sim.ForkState(ck.RootRNG, opt.ForkSeed))
	s.Ch.SetRNGState(sim.ForkState(ck.ChanRNG, opt.ForkSeed))
	return links, nil
}
