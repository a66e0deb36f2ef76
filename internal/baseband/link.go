package baseband

import (
	"repro/internal/bits"
	"repro/internal/btclock"
	"repro/internal/hop"
	"repro/internal/packet"
	"repro/internal/sim"
)

// outMsg is one queued upper-layer payload.
type outMsg struct {
	data []byte
	llid uint8
}

// Link is one ACL link as seen from one end. Master and slave each hold
// their own Link for the same logical connection; both reference the
// master's address (the piconet channel) for hopping and HEC/CRC.
type Link struct {
	dev *Device

	// AMAddr is the slave's active member address on this piconet.
	AMAddr uint8
	// Peer is the other end's device address.
	Peer BDAddr
	// Master is the piconet master's address (equals Peer on a slave).
	Master BDAddr

	sel *hop.Selector // hop selector for the master's address

	// PacketType is the baseband type used for data (default DM1); the
	// packet-type ablation swaps it.
	PacketType packet.Type

	// ARQ state. txq[txqHead:] waits to be sent. A pop advances
	// txqHead, and the backlog slides down once the popped prefix is
	// half the slice, so popping is O(1) amortized and the backing
	// array is reused. pending points at cur, never at a fresh message.
	txq         []outMsg
	txqHead     int
	pending     *outMsg // sent, awaiting acknowledgement (&cur or nil)
	cur         outMsg
	pendingSent bool // pending has been transmitted at least once
	seqnOut     bool
	arqnOut     bool
	seqnIn      bool
	seqnInValid bool

	// Scheduling state.
	createdAt       sim.Time // link establishment, supervision baseline
	lastAddressedAt sim.Time // master: last TX to this slave
	lastHeardAt     sim.Time
	newconnPending  bool
	// pollFollowUp marks a sniffed slave whose last response carried
	// data: the master keeps polling it inside the sniff window until a
	// NULL signals the slave's queue is empty. Scatternet bridges drain
	// their store-and-forward backlog through exactly this path; an
	// idle sniff window (Fig 11) never sets it.
	pollFollowUp bool

	// Power mode.
	mode         Mode
	sniffT       int // Tsniff in slots (even)
	sniffAttempt int // Nsniff-attempt in master slots
	sniffOffset  int // anchor offset in even-slot index units
	holdUntil    sim.Time
	holdT        int  // hold duration in slots (for auto-repeat)
	autoHold     bool // re-enter hold after each resync (paper Fig 12)
	resyncUntil  sim.Time

	// Stats.
	TxData int
	RxData int

	// The air path's reusable memory (never checkpointed): segment
	// buffers of acknowledged messages for Send to refill, the packet
	// nextPacket fills, and one boxed AirMeta per packet type.
	bufFree [][]byte
	txp     packet.Packet
	txh     packet.Header
	metas   [16]any
}

func newLink(dev *Device, amaddr uint8, peer, master BDAddr) *Link {
	return &Link{
		dev:        dev,
		AMAddr:     amaddr,
		Peer:       peer,
		Master:     master,
		sel:        hop.NewSelector(master.Addr28()),
		PacketType: packet.TypeDM1,
		mode:       ModeActive,
		createdAt:  dev.now(),
	}
}

// Mode returns the link's current power mode.
func (l *Link) Mode() Mode { return l.mode }

// QueueLen reports how many upper-layer messages wait for transmission.
func (l *Link) QueueLen() int {
	n := len(l.txq) - l.txqHead
	if l.pending != nil {
		n++
	}
	return n
}

// Send queues a copy of an upper-layer payload. Payloads longer than
// the packet type's capacity are split into maximal chunks. On a
// master, queueing re-arms a long-skipped TX loop (see wakeMaster).
func (l *Link) Send(data []byte, llid uint8) {
	maxLen := l.PacketType.MaxPayload()
	for len(data) > maxLen {
		l.txq = append(l.txq, outMsg{data: l.segment(data[:maxLen]), llid: llid})
		data = data[maxLen:]
		llid = LLIDContinue(llid)
	}
	l.txq = append(l.txq, outMsg{data: l.segment(data), llid: llid})
	l.dev.wakeMaster()
}

// segment copies one chunk of a payload into a buffer from the link's
// free list, which acknowledgements refill (see processRx).
func (l *Link) segment(chunk []byte) []byte {
	var buf []byte
	if n := len(l.bufFree); n > 0 {
		buf = l.bufFree[n-1][:0]
		l.bufFree = l.bufFree[:n-1]
	}
	return append(buf, chunk...)
}

// LLIDContinue maps a start LLID to its continuation value.
func LLIDContinue(llid uint8) uint8 {
	if llid == packet.LLIDL2CAPStart {
		return packet.LLIDL2CAPContinue
	}
	return llid
}

// hasTraffic reports whether a data transmission is wanted.
func (l *Link) hasTraffic() bool { return l.pending != nil || l.txqHead < len(l.txq) }

// popTx takes the oldest queued message.
func (l *Link) popTx() outMsg {
	m := l.txq[l.txqHead]
	l.txq[l.txqHead] = outMsg{}
	l.txqHead++
	if 2*l.txqHead >= len(l.txq) {
		n := copy(l.txq, l.txq[l.txqHead:])
		clear(l.txq[n:])
		l.txq, l.txqHead = l.txq[:n], 0
	}
	return m
}

// scratchPacket resets the link's reusable packet to a header-only
// packet of type t addressed to this link. It lives only until the
// transmit path has copied it onto the air (Codec.Hold).
func (l *Link) scratchPacket(lap uint32, t packet.Type) *packet.Packet {
	l.txh = packet.Header{AMAddr: l.AMAddr, Type: t}
	l.txp = packet.Packet{AccessLAP: lap, Header: &l.txh}
	return &l.txp
}

// nextPacket builds the next baseband packet for this link in its
// scratch packet: a retransmission, fresh data, or the idle packet
// (POLL for the master, NULL for a slave). The ARQN bit always reflects
// the last reception.
func (l *Link) nextPacket(master bool) *packet.Packet {
	if l.pending == nil && l.hasTraffic() {
		l.cur = l.popTx()
		l.pending = &l.cur
		l.pendingSent = false
		l.seqnOut = !l.seqnOut
	}
	t := packet.TypeNull
	switch {
	case l.pending != nil:
		t = l.PacketType
	case master:
		t = packet.TypePoll
	}
	p := l.scratchPacket(l.Master.LAP, t)
	l.txh.ARQN = l.arqnOut
	if l.pending != nil {
		if l.pendingSent {
			l.dev.Counters.Retransmits++
		}
		l.pendingSent = true
		l.txh.SEQN = l.seqnOut
		l.TxData++
		p.Payload = l.pending.data
		p.LLID = l.pending.llid
	}
	return p
}

// airMeta returns the boxed AirMeta of a packet on this link, boxing it
// once per packet type rather than once per packet.
func (l *Link) airMeta(p *packet.Packet) any {
	m := AirMeta{Type: p.Header.Type, AMAddr: p.Header.AMAddr, LAP: p.AccessLAP}
	box := &l.metas[m.Type&0xF]
	if old, ok := (*box).(AirMeta); !ok || old != m {
		*box = m
	}
	return *box
}

// processRx updates ARQ state from a received header and reports whether
// the payload (if any) is new (not a duplicate).
func (l *Link) processRx(h *packet.Header, hasPayload bool) (deliver bool) {
	if h.ARQN && l.pending != nil {
		// Acknowledged: the segment buffer goes back to Send.
		bits.PoisonBytes(l.cur.data)
		l.bufFree = append(l.bufFree, l.cur.data)
		l.pending, l.cur = nil, outMsg{}
	}
	if !hasPayload {
		return false
	}
	if l.seqnInValid && h.SEQN == l.seqnIn {
		l.dev.Counters.DupsFiltered++
		l.arqnOut = true // ack again; the peer missed our ack
		return false
	}
	l.seqnIn = h.SEQN
	l.seqnInValid = true
	l.arqnOut = true
	l.RxData++
	return true
}

// rxFailed records a failed reception: the next outgoing ARQN is NAK.
func (l *Link) rxFailed() { l.arqnOut = false }

// inSniffWindow reports whether the even-slot index lies inside the
// link's sniff anchor window.
func (l *Link) inSniffWindow(evenSlotIdx uint32) bool {
	period := uint32(l.sniffT / 2) // even slots per Tsniff
	if period == 0 {
		return true
	}
	pos := (evenSlotIdx - uint32(l.sniffOffset)) % period
	return pos < uint32(l.sniffAttempt)
}

// evenSlotIdxMask keeps an even-slot index, CLK>>2, to the 26 bits the
// 28-bit piconet clock leaves it.
const evenSlotIdxMask = btclock.Mask >> 2

// sniffWait returns how many even slots after evenSlotIdx the sniff
// window next opens, 0 if it is open there. Inside a window the
// position climbs by one per even slot, so the window opens where the
// position wraps to 0. Two things restart the position earlier: the
// index wrapping to 0 with the clock, and the index reaching the
// offset, where idx-offset wraps in uint32. It panics if no window
// opens within Tsniff+1 even slots.
func (l *Link) sniffWait(evenSlotIdx uint32) uint32 {
	period, off := uint32(l.sniffT/2), uint32(l.sniffOffset)
	idx, k := evenSlotIdx&evenSlotIdxMask, uint32(0)
	for !l.inSniffWindow(idx) {
		step := min(period-(idx-off)%period, evenSlotIdxMask+1-idx)
		if idx < off {
			step = min(step, off-idx)
		}
		idx, k = (idx+step)&evenSlotIdxMask, k+step
		if k > uint32(l.sniffT)+1 {
			panic("baseband: sniff window never opens")
		}
	}
	return k
}
