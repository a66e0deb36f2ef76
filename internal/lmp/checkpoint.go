package lmp

import (
	"fmt"

	"repro/internal/baseband"
)

// Checkpoint/restore for the LMP layer. A manager's durable state is
// tiny: which links finished setup, which sent setup_complete, and the
// last slot offset each peer announced. Everything else is
// transactional — a pending-accept callback or a scheduled mode-change
// closure — and the quiescent-edge snapshot contract excludes it
// (Quiescent must hold before capture), so it is never captured.

// LinkSetup is the captured LMP state of one link, keyed by peer.
type LinkSetup struct {
	Peer          baseband.BDAddr
	SetupDone     bool
	SetupSent     bool
	SlotOffset    uint16
	HasSlotOffset bool
}

// Quiescent reports whether the manager has no transaction in progress:
// no request awaiting an accepted/not_accepted answer, and no deferred
// mode-change or AFH-switch closure scheduled.
func (m *Manager) Quiescent() bool {
	return len(m.pendingAccept) == 0 && m.deferred == 0
}

// Checkpoint captures the per-link setup state for links, in the
// caller's (deterministic) order. It fails if a transaction is in
// progress.
func (m *Manager) Checkpoint(links []*baseband.Link) ([]LinkSetup, error) {
	if !m.Quiescent() {
		return nil, fmt.Errorf("lmp: %s has a transaction in progress", m.dev.Name())
	}
	out := make([]LinkSetup, 0, len(links))
	for _, l := range links {
		s := LinkSetup{Peer: l.Peer, SetupDone: m.setupDone[l], SetupSent: m.setupSent[l]}
		s.SlotOffset, s.HasSlotOffset = m.slotOffsets[l]
		out = append(out, s)
	}
	return out, nil
}

// RestoreSetup re-keys captured setup state onto restored links,
// matching by peer address.
func (m *Manager) RestoreSetup(links []*baseband.Link, setups []LinkSetup) error {
	byPeer := make(map[baseband.BDAddr]*baseband.Link, len(links))
	for _, l := range links {
		byPeer[l.Peer] = l
	}
	for _, s := range setups {
		l, ok := byPeer[s.Peer]
		if !ok {
			return fmt.Errorf("lmp: %s setup state references unknown link %v", m.dev.Name(), s.Peer)
		}
		if s.SetupDone {
			m.setupDone[l] = true
		}
		if s.SetupSent {
			m.setupSent[l] = true
		}
		if s.HasSlotOffset {
			m.slotOffsets[l] = s.SlotOffset
		}
	}
	return nil
}
