package l2cap

import (
	"fmt"
	"sort"

	"repro/internal/baseband"
)

// Checkpoint/restore for the L2CAP layer. Channel state is plain data
// (CIDs, PSM, lifecycle state, the per-link reassembly buffer); the
// callbacks (OnSDU, OnClose, PSM acceptors) are the application's and
// are re-wired by whatever layer owns them after restore. A channel
// still waiting for its connection response holds a completion closure
// that cannot be captured, so the quiescent-edge contract excludes
// mid-handshake muxes from capture.

// ChannelCheckpoint is one open channel's identity.
type ChannelCheckpoint struct {
	PSM       uint16
	LocalCID  uint16
	RemoteCID uint16
}

// LinkMuxCheckpoint is the captured L2CAP state of one link, keyed by
// peer address.
type LinkMuxCheckpoint struct {
	Peer     baseband.BDAddr
	Buf      []byte
	NextCID  uint16
	Channels []ChannelCheckpoint // ascending LocalCID
}

// MuxCheckpoint is the captured state of one device's L2CAP entity.
type MuxCheckpoint struct {
	SignID uint8
	Links  []LinkMuxCheckpoint // caller's link order
}

// Quiescent reports whether the mux has no signalling transaction in
// progress: no channel awaiting a connection response and no
// outstanding echo.
func (m *Mux) Quiescent() bool {
	if m.echoDone != nil {
		return false
	}
	for _, st := range m.links {
		for _, ch := range st.channels {
			if ch.state == StateWaitConnRsp {
				return false
			}
		}
	}
	return true
}

// Checkpoint captures the mux's state for links, in the caller's
// (deterministic) order. Links the mux never saw traffic on are
// captured with empty state, so restore symmetry holds regardless of
// which links exchanged frames before the snapshot.
func (m *Mux) Checkpoint(links []*baseband.Link) (*MuxCheckpoint, error) {
	if !m.Quiescent() {
		return nil, fmt.Errorf("l2cap: %s has a signalling transaction in progress", m.dev.Name())
	}
	ck := &MuxCheckpoint{SignID: m.signID}
	for _, l := range links {
		lc := LinkMuxCheckpoint{Peer: l.Peer, NextCID: cidDynamic}
		if st, ok := m.links[l]; ok {
			lc.Buf = append([]byte(nil), st.buf...)
			lc.NextCID = st.nextCID
			for _, ch := range st.channels {
				lc.Channels = append(lc.Channels, ChannelCheckpoint{
					PSM: ch.PSM, LocalCID: ch.LocalCID, RemoteCID: ch.RemoteCID,
				})
			}
			sort.Slice(lc.Channels, func(i, j int) bool {
				return lc.Channels[i].LocalCID < lc.Channels[j].LocalCID
			})
		}
		ck.Links = append(ck.Links, lc)
	}
	return ck, nil
}

// Restore imposes ck on a fresh mux, matching captured link state to
// restored links by peer address. All restored channels are open;
// their OnSDU/OnClose callbacks are nil until the owner re-wires them.
func (m *Mux) Restore(links []*baseband.Link, ck *MuxCheckpoint) error {
	byPeer := make(map[baseband.BDAddr]*baseband.Link, len(links))
	for _, l := range links {
		byPeer[l.Peer] = l
	}
	m.signID = ck.SignID
	for _, lc := range ck.Links {
		l, ok := byPeer[lc.Peer]
		if !ok {
			return fmt.Errorf("l2cap: %s mux state references unknown link %v", m.dev.Name(), lc.Peer)
		}
		st := m.stateFor(l)
		st.buf = append(st.buf[:0], lc.Buf...)
		st.nextCID = lc.NextCID
		for _, cc := range lc.Channels {
			st.channels[cc.LocalCID] = &Channel{
				mux: m, link: l, PSM: cc.PSM,
				LocalCID: cc.LocalCID, RemoteCID: cc.RemoteCID,
				state: StateOpen,
			}
		}
	}
	return nil
}

// Channels returns the open channels on l in ascending LocalCID order —
// the deterministic enumeration restore callers use to re-wire OnSDU.
func (m *Mux) Channels(l *baseband.Link) []*Channel {
	st, ok := m.links[l]
	if !ok {
		return nil
	}
	out := make([]*Channel, 0, len(st.channels))
	for _, ch := range st.channels {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LocalCID < out[j].LocalCID })
	return out
}
