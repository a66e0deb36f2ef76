// Package lmp implements the Link Manager Protocol layer the paper
// models above the baseband: LMP PDUs ride LLID-3 payloads on the ACL
// link and negotiate connection setup, the low-power modes (sniff, hold,
// park) and detach — so an application can drive mode changes over the
// air instead of poking both ends of the link directly.
package lmp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/baseband"
	"repro/internal/hop"
	"repro/internal/packet"
)

// Opcode identifies an LMP PDU (a representative subset of spec 1.2
// part C).
type Opcode uint8

// LMP opcodes.
const (
	OpAccepted         Opcode = 3
	OpNotAccepted      Opcode = 4
	OpDetach           Opcode = 7
	OpHoldReq          Opcode = 21
	OpSniffReq         Opcode = 23
	OpUnsniffReq       Opcode = 24
	OpParkReq          Opcode = 25
	OpUnparkReq        Opcode = 33
	OpSlotOffset       Opcode = 52
	OpSetAFH           Opcode = 60
	OpSCOLinkReq       Opcode = 43
	OpRemoveSCOLinkReq Opcode = 44
	OpHostConnReq      Opcode = 51
	OpSetupComplete    Opcode = 49
	OpNameReq          Opcode = 1
	OpNameRes          Opcode = 2
	OpVersionReq       Opcode = 37
	OpVersionRes       Opcode = 38
	OpMaxSlot          Opcode = 45
	OpMaxSlotReq       Opcode = 46
	OpTimingAccuracyRq Opcode = 47
	OpTimingAccuracyRs Opcode = 48
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpAccepted:
		return "LMP_accepted"
	case OpNotAccepted:
		return "LMP_not_accepted"
	case OpDetach:
		return "LMP_detach"
	case OpHoldReq:
		return "LMP_hold_req"
	case OpSniffReq:
		return "LMP_sniff_req"
	case OpUnsniffReq:
		return "LMP_unsniff_req"
	case OpParkReq:
		return "LMP_park_req"
	case OpUnparkReq:
		return "LMP_unpark_req"
	case OpSlotOffset:
		return "LMP_slot_offset"
	case OpSetAFH:
		return "LMP_set_AFH"
	case OpSCOLinkReq:
		return "LMP_SCO_link_req"
	case OpRemoveSCOLinkReq:
		return "LMP_remove_SCO_link_req"
	case OpHostConnReq:
		return "LMP_host_connection_req"
	case OpSetupComplete:
		return "LMP_setup_complete"
	case OpVersionReq:
		return "LMP_version_req"
	case OpVersionRes:
		return "LMP_version_res"
	case OpMaxSlot:
		return "LMP_max_slot"
	case OpMaxSlotReq:
		return "LMP_max_slot_req"
	default:
		return fmt.Sprintf("LMP_op(%d)", uint8(o))
	}
}

// btclockMask keeps clock arithmetic in the 28-bit counter.
const btclockMask = (1 << 28) - 1

// modeChangeDeferSlots is how long a responder stays active after
// accepting a hold/park request so the acceptance reaches the peer (the
// spec negotiates an explicit instant; a fixed defer is equivalent here).
const modeChangeDeferSlots = 16

// PDU is a decoded LMP message.
type PDU struct {
	Op     Opcode
	Params []byte
}

// Encode serialises the PDU: opcode byte then parameters (transaction-ID
// bit folded into the opcode byte is omitted in this model).
func (p PDU) Encode() []byte {
	out := make([]byte, 1+len(p.Params))
	out[0] = uint8(p.Op)
	copy(out[1:], p.Params)
	return out
}

// Decode parses an on-air LMP payload.
func Decode(b []byte) (PDU, error) {
	if len(b) == 0 {
		return PDU{}, errors.New("lmp: empty PDU")
	}
	return PDU{Op: Opcode(b[0]), Params: append([]byte(nil), b[1:]...)}, nil
}

// u16 little-endian helpers for parameters.
func putU16(v uint16) []byte {
	b := make([]byte, 2)
	binary.LittleEndian.PutUint16(b, v)
	return b
}

func getU16(b []byte) uint16 { return binary.LittleEndian.Uint16(b) }

// Manager runs the LMP state machine for one device: it owns the
// device's OnLMP callback and exposes request APIs whose acceptance
// applies the mode change on both ends of the link.
type Manager struct {
	dev *baseband.Device

	// OnSetupComplete fires when both sides finished connection setup.
	OnSetupComplete func(l *baseband.Link)
	// OnModeChange fires after a negotiated mode transition applies.
	OnModeChange func(l *baseband.Link, m baseband.Mode)
	// OnDetach fires when the peer detaches the link.
	OnDetach func(l *baseband.Link)
	// OnSCOEstablished fires on the acceptor when a voice channel is
	// installed, so the host can attach Source and Sink.
	OnSCOEstablished func(sco *baseband.SCOLink)

	// OnSlotOffset fires when the peer announces its slot offset (the
	// timing half of the spec's role-switch preamble; scatternet bridges
	// send it before pinning their presence windows).
	OnSlotOffset func(l *baseband.Link, offsetUS uint16, peer baseband.BDAddr)

	pendingAccept map[*baseband.Link]func(accepted bool)
	setupDone     map[*baseband.Link]bool
	setupSent     map[*baseband.Link]bool
	slotOffsets   map[*baseband.Link]uint16

	// deferred counts scheduled mode-change/AFH-switch closures that
	// have not fired yet; a manager with deferred work is mid-transaction
	// and not checkpointable (see Quiescent).
	deferred int
}

// deferAfter schedules fn like Device.After while counting it as an
// in-progress LMP transaction until it fires.
func (m *Manager) deferAfter(slots uint64, fn func()) {
	m.deferred++
	m.dev.After(slots, func() {
		m.deferred--
		fn()
	})
}

// Attach creates a Manager bound to dev's LMP channel.
func Attach(dev *baseband.Device) *Manager {
	m := &Manager{
		dev:           dev,
		pendingAccept: make(map[*baseband.Link]func(bool)),
		setupDone:     make(map[*baseband.Link]bool),
		setupSent:     make(map[*baseband.Link]bool),
		slotOffsets:   make(map[*baseband.Link]uint16),
	}
	dev.OnLMP = m.receive
	return m
}

// Dev returns the underlying baseband device.
func (m *Manager) Dev() *baseband.Device { return m.dev }

// SetupComplete reports whether LMP setup finished on l.
func (m *Manager) SetupComplete(l *baseband.Link) bool { return m.setupDone[l] }

// send queues a PDU on the link.
func (m *Manager) send(l *baseband.Link, p PDU) {
	l.Send(p.Encode(), packet.LLIDLMP)
}

// StartSetup begins connection setup (run on the master after the
// baseband link connects): host_connection_req, answered by accepted,
// then setup_complete both ways.
func (m *Manager) StartSetup(l *baseband.Link) {
	m.send(l, PDU{Op: OpHostConnReq})
}

// RequestSniff negotiates sniff mode for the link (master side).
func (m *Manager) RequestSniff(l *baseband.Link, tsniff, attempt, offset int, result func(bool)) {
	params := append(putU16(uint16(tsniff)), append(putU16(uint16(attempt)), putU16(uint16(offset))...)...)
	m.pendingAccept[l] = func(ok bool) {
		if ok {
			l.EnterSniff(tsniff, attempt, offset)
			m.notifyMode(l, baseband.ModeSniff)
		}
		if result != nil {
			result(ok)
		}
	}
	m.send(l, PDU{Op: OpSniffReq, Params: params})
}

// RequestUnsniff returns the link to active mode.
func (m *Manager) RequestUnsniff(l *baseband.Link, result func(bool)) {
	m.pendingAccept[l] = func(ok bool) {
		if ok {
			l.ExitSniff()
			m.notifyMode(l, baseband.ModeActive)
		}
		if result != nil {
			result(ok)
		}
	}
	m.send(l, PDU{Op: OpUnsniffReq})
}

// RequestHold negotiates a one-shot hold period.
func (m *Manager) RequestHold(l *baseband.Link, holdSlots int, result func(bool)) {
	m.pendingAccept[l] = func(ok bool) {
		if ok {
			l.EnterHold(holdSlots)
			m.notifyMode(l, baseband.ModeHold)
		}
		if result != nil {
			result(ok)
		}
	}
	m.send(l, PDU{Op: OpHoldReq, Params: putU16(uint16(holdSlots))})
}

// RequestPark negotiates park mode with the given beacon period.
func (m *Manager) RequestPark(l *baseband.Link, beaconSlots int, result func(bool)) {
	m.pendingAccept[l] = func(ok bool) {
		if ok {
			l.EnterPark(beaconSlots)
			m.notifyMode(l, baseband.ModePark)
		}
		if result != nil {
			result(ok)
		}
	}
	m.send(l, PDU{Op: OpParkReq, Params: putU16(uint16(beaconSlots))})
}

// SendSlotOffset announces this device's slot offset on l: the phase
// difference, in microseconds, between the peer piconet's slot grid and
// another slot grid this device is synchronised to. In the spec
// LMP_slot_offset precedes a master/slave role switch; here it is the
// timing half of the scatternet bridge handshake — the bridge tells
// each master where its *other* piconet's slots sit before pinning its
// presence windows, so the announced sniff anchors are interpretable.
// The PDU carries the offset and the sender's BD_ADDR.
func (m *Manager) SendSlotOffset(l *baseband.Link, offsetUS uint16) {
	a := m.dev.Addr()
	params := append(putU16(offsetUS),
		byte(a.LAP), byte(a.LAP>>8), byte(a.LAP>>16), a.UAP, byte(a.NAP), byte(a.NAP>>8))
	m.send(l, PDU{Op: OpSlotOffset, Params: params})
}

// PeerSlotOffset returns the last slot offset the peer announced on l
// and whether one was ever received.
func (m *Manager) PeerSlotOffset(l *baseband.Link) (uint16, bool) {
	v, ok := m.slotOffsets[l]
	return v, ok
}

// RequestPresence is the bridge timing handshake, run from the slave
// side of l: LMP_slot_offset announces where the bridge's other slot
// grid sits, then a sniff negotiation pins this link to the presence
// window described by (tsniff, attempt, offset) — the window in which
// the bridge's radio is parked on THIS piconet's hop sequence. The
// master stops addressing the bridge outside the window (the sniff
// scheduler's contract), which is exactly the absence guarantee a
// device timesharing its radio between piconets needs. A full
// master/slave role switch is not modelled; bridges in this model are
// slaves in every piconet they join, which the spec permits.
func (m *Manager) RequestPresence(l *baseband.Link, tsniff, attempt, offset int, slotOffsetUS uint16, result func(bool)) {
	m.SendSlotOffset(l, slotOffsetUS)
	m.RequestSniff(l, tsniff, attempt, offset, result)
}

// RequestSCO negotiates a voice channel over the ACL link (master
// side): the slave accepts and installs its end, then the master
// reserves the slots.
func (m *Manager) RequestSCO(l *baseband.Link, ty packet.Type, tsco, dsco int, result func(*baseband.SCOLink)) {
	params := append([]byte{uint8(ty)}, append(putU16(uint16(tsco)), putU16(uint16(dsco))...)...)
	m.pendingAccept[l] = func(ok bool) {
		var sco *baseband.SCOLink
		if ok {
			sco = m.dev.AddSCO(l, ty, tsco, dsco)
		}
		if result != nil {
			result(sco)
		}
	}
	m.send(l, PDU{Op: OpSCOLinkReq, Params: params})
}

// afhInstantDelaySlots is how far in the future the AFH switch instant
// lies: long enough for the acceptance to ride back on the old hop set.
const afhInstantDelaySlots = 256

// SetAFH pushes an adaptive channel map to the slave (master side); nil
// restores the full hop set. Both ends switch at a shared future
// instant (spec AFH_instant), so no packet straddles two hop sets.
func (m *Manager) SetAFH(l *baseband.Link, cm *hop.ChannelMap, result func(bool)) {
	var mask []byte
	if cm != nil {
		mask = cm.Bitmask()
	} else {
		mask = hop.AllChannels().Bitmask()
	}
	instant := m.dev.Clock.CLK(m.dev.Now()) + afhInstantDelaySlots*2
	params := append(mask, byte(instant), byte(instant>>8), byte(instant>>16), byte(instant>>24))
	m.pendingAccept[l] = func(ok bool) {
		if ok {
			m.deferAfter(afhInstantDelaySlots, func() { m.dev.SetAFH(cm) })
		}
		if result != nil {
			result(ok)
		}
	}
	m.send(l, PDU{Op: OpSetAFH, Params: params})
}

// Detach tears the link down from either end.
func (m *Manager) Detach(l *baseband.Link) {
	m.send(l, PDU{Op: OpDetach})
}

// sendSetupComplete transmits LMP_setup_complete at most once per link.
func (m *Manager) sendSetupComplete(l *baseband.Link) {
	if m.setupSent[l] {
		return
	}
	m.setupSent[l] = true
	m.send(l, PDU{Op: OpSetupComplete})
}

func (m *Manager) notifyMode(l *baseband.Link, mode baseband.Mode) {
	if m.OnModeChange != nil {
		m.OnModeChange(l, mode)
	}
}

// receive dispatches incoming PDUs.
func (m *Manager) receive(l *baseband.Link, payload []byte) {
	pdu, err := Decode(payload)
	if err != nil {
		return
	}
	switch pdu.Op {
	case OpHostConnReq:
		// Responder: accept, then announce our setup completion.
		m.send(l, PDU{Op: OpAccepted, Params: []byte{uint8(OpHostConnReq)}})
		m.sendSetupComplete(l)
	case OpSetupComplete:
		// Both sides must send setup_complete; completion fires when the
		// peer's arrives.
		m.sendSetupComplete(l)
		if !m.setupDone[l] {
			m.setupDone[l] = true
			if m.OnSetupComplete != nil {
				m.OnSetupComplete(l)
			}
		}
	case OpAccepted:
		if len(pdu.Params) >= 1 && Opcode(pdu.Params[0]) == OpHostConnReq {
			// Initiator: the peer accepted; announce our completion.
			m.sendSetupComplete(l)
			return
		}
		if cb, ok := m.pendingAccept[l]; ok {
			delete(m.pendingAccept, l)
			cb(true)
		}
	case OpNotAccepted:
		if cb, ok := m.pendingAccept[l]; ok {
			delete(m.pendingAccept, l)
			cb(false)
		}
	case OpSniffReq:
		if len(pdu.Params) < 6 {
			m.send(l, PDU{Op: OpNotAccepted, Params: []byte{uint8(OpSniffReq)}})
			return
		}
		t, attempt, off := int(getU16(pdu.Params[0:2])), int(getU16(pdu.Params[2:4])), int(getU16(pdu.Params[4:6]))
		m.send(l, PDU{Op: OpAccepted, Params: []byte{uint8(OpSniffReq)}})
		l.EnterSniff(t, attempt, off)
		m.notifyMode(l, baseband.ModeSniff)
	case OpUnsniffReq:
		m.send(l, PDU{Op: OpAccepted, Params: []byte{uint8(OpUnsniffReq)}})
		l.ExitSniff()
		m.notifyMode(l, baseband.ModeActive)
	case OpHoldReq:
		if len(pdu.Params) < 2 {
			m.send(l, PDU{Op: OpNotAccepted, Params: []byte{uint8(OpHoldReq)}})
			return
		}
		slots := int(getU16(pdu.Params[0:2]))
		m.send(l, PDU{Op: OpAccepted, Params: []byte{uint8(OpHoldReq)}})
		// Defer the mode change so the acceptance is polled out before
		// the responder's RF goes dark (the spec's hold instant).
		m.deferAfter(modeChangeDeferSlots, func() {
			l.EnterHold(slots)
			m.notifyMode(l, baseband.ModeHold)
		})
	case OpParkReq:
		if len(pdu.Params) < 2 {
			m.send(l, PDU{Op: OpNotAccepted, Params: []byte{uint8(OpParkReq)}})
			return
		}
		beacon := int(getU16(pdu.Params[0:2]))
		m.send(l, PDU{Op: OpAccepted, Params: []byte{uint8(OpParkReq)}})
		m.deferAfter(modeChangeDeferSlots, func() {
			l.EnterPark(beacon)
			m.notifyMode(l, baseband.ModePark)
		})
	case OpSlotOffset:
		if len(pdu.Params) < 8 {
			m.send(l, PDU{Op: OpNotAccepted, Params: []byte{uint8(OpSlotOffset)}})
			return
		}
		off := getU16(pdu.Params[0:2])
		peer := baseband.BDAddr{
			LAP: uint32(pdu.Params[2]) | uint32(pdu.Params[3])<<8 | uint32(pdu.Params[4])<<16,
			UAP: pdu.Params[5],
			NAP: uint16(pdu.Params[6]) | uint16(pdu.Params[7])<<8,
		}
		m.slotOffsets[l] = off
		if m.OnSlotOffset != nil {
			m.OnSlotOffset(l, off, peer)
		}
	case OpSetAFH:
		cm, err := hop.FromBitmask(pdu.Params)
		if err != nil || len(pdu.Params) < 14 {
			m.send(l, PDU{Op: OpNotAccepted, Params: []byte{uint8(OpSetAFH)}})
			return
		}
		if cm.N() == hop.NumChannels {
			cm = nil // full set: AFH effectively off
		}
		instant := uint32(pdu.Params[10]) | uint32(pdu.Params[11])<<8 |
			uint32(pdu.Params[12])<<16 | uint32(pdu.Params[13])<<24
		// Switch at the shared instant; the acceptance travels on the old
		// hop set. Piconet clocks agree, so both ends compute the same
		// residual delay.
		wait := (instant - m.dev.Clock.CLK(m.dev.Now())) & btclockMask
		m.deferAfter(uint64(wait/2), func() { m.dev.SetAFH(cm) })
		m.send(l, PDU{Op: OpAccepted, Params: []byte{uint8(OpSetAFH)}})
	case OpSCOLinkReq:
		if len(pdu.Params) < 5 {
			m.send(l, PDU{Op: OpNotAccepted, Params: []byte{uint8(OpSCOLinkReq)}})
			return
		}
		ty := packet.Type(pdu.Params[0])
		tsco, dsco := int(getU16(pdu.Params[1:3])), int(getU16(pdu.Params[3:5]))
		if !ty.IsSCO() {
			m.send(l, PDU{Op: OpNotAccepted, Params: []byte{uint8(OpSCOLinkReq)}})
			return
		}
		sco := m.dev.AcceptSCO(ty, tsco, dsco)
		m.send(l, PDU{Op: OpAccepted, Params: []byte{uint8(OpSCOLinkReq)}})
		if m.OnSCOEstablished != nil {
			m.OnSCOEstablished(sco)
		}
	case OpDetach:
		if m.OnDetach != nil {
			m.OnDetach(l)
		}
	case OpVersionReq:
		m.send(l, PDU{Op: OpVersionRes, Params: []byte{2, 0, 0}}) // BT 1.2
	case OpMaxSlotReq:
		m.send(l, PDU{Op: OpMaxSlot, Params: []byte{5}})
	}
}
