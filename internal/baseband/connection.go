package baseband

import (
	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/packet"
	"repro/internal/sim"
)

// startMasterLoop enters connection state as piconet master and begins
// the TDD polling scheme: transmit in even CLK slots, listen for the
// addressed slave's response in the following slot.
func (d *Device) startMasterLoop() {
	d.isMaster = true
	d.setState(StateConnection)
	d.onRx = d.masterRx
	d.scheduleMasterSlot(d.now())
}

func (d *Device) scheduleMasterSlot(from sim.Time) {
	t := d.nextCLKSlot(from)
	if t <= d.now() {
		t = d.nextCLKSlot(d.now() + 1)
	}
	d.tMasterSlot.At(t)
}

// masterSlot runs one master transmit opportunity.
func (d *Device) masterSlot() {
	if d.state != StateConnection || !d.isMaster {
		return
	}
	d.masterParked = false
	if d.rxBusy {
		// A multi-slot response is still arriving.
		d.scheduleMasterSlot(d.now() + 1)
		return
	}
	d.rxOff()
	now := d.now()
	d.checkSupervision(now)
	if d.state != StateConnection {
		return // every link supervision-timed-out
	}
	if sco := d.scoDue(now); sco != nil {
		// Reserved voice slots take absolute priority.
		d.transmitSCOSlot(sco, now)
		return
	}
	if d.beaconDue(now) {
		d.transmitBeacon(now)
		d.scheduleMasterSlot(now + 1)
		return
	}
	l := d.pickLink(now)
	if l == nil {
		d.scheduleMasterIdle(now)
		return
	}
	clk := d.Clock.CLK(now)
	p := l.nextPacket(true)
	// Keep multi-slot ACL packets (and their response slot) clear of the
	// next SCO reservation.
	if gap := d.evenSlotsToNextSCO(clk >> 2); uint32(p.Header.Type.Slots()+1+1)/2 > gap {
		if l.pending != nil {
			l.pendingSent = false // not actually sent this time
		}
		p = l.scratchPacket(d.cfg.Addr.LAP, packet.TypePoll)
		p.Header.ARQN = l.arqnOut
	}
	if p.Header.Type == packet.TypePoll {
		d.Counters.Polls++
	}
	d.transmit(p, l, d.cfg.Addr.UAP, clk, d.chanFreq(d.ownSel, clk))
	l.lastAddressedAt = now
	l.pollFollowUp = false // re-armed if the response carries data

	// Listen for the slave's response in the slot after the packet.
	slots := uint64(p.Header.Type.Slots())
	respAt := now + sim.Time(sim.Slots(slots))
	d.masterRespAt = respAt
	d.tMasterOpen.At(respAt - sim.Time(d.leadTicks()))
	d.tMasterCls.At(respAt + sim.Time(sim.Microseconds(carrierSenseUS)))
	d.scheduleMasterSlot(respAt + sim.Time(sim.Slots(1)))
}

// masterRespOpen opens the response listen window armed by the last
// master transmission.
func (d *Device) masterRespOpen() {
	if !d.rxBusy {
		d.rxOn(d.chanFreq(d.ownSel, d.Clock.CLK(d.masterRespAt)))
	}
}

// scheduleMasterIdle re-arms the master loop after a slot with nothing
// to do. When every member is provably quiet for a while — no queued
// traffic, no poll due before Tpoll, no SCO reservation, beacon, sniff
// window, hold expiry or supervision deadline — the loop long-skips to
// the earliest of those deadlines instead of firing a no-op event every
// other slot; new work re-arms it early (see wakeMaster).
func (d *Device) scheduleMasterIdle(now sim.Time) {
	wake, ok := d.masterNextWork(now)
	if !ok || wake <= now+sim.Time(sim.Slots(2)) {
		d.scheduleMasterSlot(now + 1)
		return
	}
	d.masterParked = true
	d.scheduleMasterSlot(wake)
}

// masterNextWork returns the earliest future time at which the master
// loop could have work, and whether such a bound exists. It mirrors the
// conditions of masterSlot/pickLink exactly: a slot strictly before the
// returned time would find nothing to transmit.
func (d *Device) masterNextWork(now sim.Time) (sim.Time, bool) {
	const none = sim.Time(^uint64(0))
	wake := none
	earlier := func(t sim.Time) {
		if t < wake {
			wake = t
		}
	}
	evenIdx := d.Clock.CLK(now) >> 2
	slotAt := func(idx uint32) sim.Time {
		return now + sim.Time(sim.Slots(uint64(idx-evenIdx)*2))
	}
	budget := sim.Time(sim.Slots(uint64(d.cfg.SupervisionTimeoutSlots)))
	tpoll := sim.Time(sim.Slots(uint64(d.cfg.TpollSlots)))
	for am := uint8(1); am <= 7; am++ {
		l := d.links[am]
		if l == nil {
			continue
		}
		superRef := l.lastHeardAt
		if superRef == 0 {
			superRef = l.createdAt
		}
		switch l.mode {
		case ModePark:
			continue // beacons handled below; supervision suspended
		case ModeHold:
			// The resync poll is due at holdUntil; supervision resumes
			// later still, so the expiry bounds this link.
			earlier(l.holdUntil)
			continue
		case ModeSniff:
			// Next slot inside the sniff window (the window itself is the
			// earliest the master would address this link again).
			period := uint32(l.sniffT / 2)
			if period == 0 {
				earlier(slotAt(evenIdx + 1))
			} else {
				idx := evenIdx + 1
				if pos := (idx - uint32(l.sniffOffset)) % period; pos >= uint32(l.sniffAttempt) {
					idx += period - pos
				}
				earlier(slotAt(idx))
			}
			earlier(superRef + budget)
			continue
		}
		// Active: the next poll is due a full Tpoll after the last
		// address (traffic arrivals re-arm the loop via wakeMaster).
		earlier(l.lastAddressedAt + tpoll)
		earlier(superRef + budget)
	}
	if len(d.scoLinks) > 0 {
		earlier(slotAt(evenIdx + d.evenSlotsToNextSCO(evenIdx)))
	}
	if period := uint32(d.beaconEverySlots / 2); period > 0 {
		for _, l := range d.links {
			if l != nil && l.mode == ModePark {
				idx := evenIdx + 1
				if r := idx % period; r != 0 {
					idx += period - r
				}
				earlier(slotAt(idx))
				break
			}
		}
	}
	return wake, wake != none
}

// wakeMaster re-arms a long-skipped master loop when new work appears:
// queued traffic, a mode change, or a fresh SCO reservation. Work
// arriving from an event exactly on a TX boundary serves this very slot
// (the loop event fires later in the same tick, as the unskipped
// loop's would have); work queued from outside the kernel loop at a
// boundary tick waits for the next boundary, because the unskipped
// loop's event for the current tick has already fired.
func (d *Device) wakeMaster() {
	if d == nil || !d.masterParked || !d.isMaster || d.state != StateConnection {
		return
	}
	d.masterParked = false
	t := d.nextCLKSlot(d.now())
	if t == d.now() && !d.k.Running() {
		t = d.nextCLKSlot(d.now() + 1)
	}
	d.tMasterSlot.At(t)
}

// pickLink selects which slave (if any) this transmit slot serves:
// traffic first, then poll-due links, respecting sniff windows and hold.
// The data scan starts after the last slave served, so saturated links
// share the channel round-robin instead of the lowest AM_ADDR
// monopolising every transmit opportunity.
func (d *Device) pickLink(now sim.Time) *Link {
	evenIdx := d.Clock.CLK(now) >> 2
	tpoll := sim.Time(sim.Slots(uint64(d.cfg.TpollSlots)))
	var pollDue *Link
	var withData *Link
	for i := uint8(0); i < 7; i++ {
		am := (d.lastServedAM+i)%7 + 1
		l := d.links[am]
		if l == nil {
			continue
		}
		switch l.mode {
		case ModeHold:
			if now < l.holdUntil {
				continue
			}
			// Hold expired: resynchronise the slave with a poll.
			if pollDue == nil {
				pollDue = l
			}
			continue
		case ModeSniff:
			if !l.inSniffWindow(evenIdx) {
				continue
			}
			if l.pollFollowUp && pollDue == nil {
				pollDue = l
			}
		case ModePark:
			continue // parked slaves only get beacons
		}
		if l.hasTraffic() && withData == nil {
			withData = l
		}
		if l.newconnPending || now-l.lastAddressedAt >= tpoll {
			if pollDue == nil {
				pollDue = l
			}
		}
	}
	if withData != nil {
		d.lastServedAM = withData.AMAddr
		return withData
	}
	return pollDue
}

// masterRx handles slave responses.
func (d *Device) masterRx(tx *channel.Transmission, rx *bits.Vec, collided bool) {
	defer d.rxOff()
	if collided {
		d.observeFreq(tx.Freq, false)
		return
	}
	clk := d.Clock.CLK(tx.Start)
	p, _, err := d.parse(tx, rx, d.cfg.Addr.LAP, d.cfg.Addr.UAP, clk)
	if err != nil {
		d.Counters.RxErrors++
		d.observeFreq(tx.Freq, false)
		// We cannot attribute the failure to a link (header unknown), so
		// no ARQ update; the pending packet retransmits on timeout.
		return
	}
	d.Counters.RxPackets++
	d.observeFreq(tx.Freq, true)
	if p.Header.Type.IsSCO() {
		if l := d.links[p.Header.AMAddr]; l != nil {
			l.lastHeardAt = d.now()
		}
		d.handleSCORx(p, tx.Start)
		return
	}
	l := d.links[p.Header.AMAddr]
	if l == nil {
		return
	}
	l.lastHeardAt = d.now()
	if l.newconnPending {
		l.newconnPending = false
		d.completeConnection(l)
	}
	if l.mode == ModeHold && d.now() >= l.holdUntil {
		d.masterHoldResynced(l)
	}
	if l.mode == ModeSniff && len(p.Payload) > 0 {
		// The sniffed slave has traffic; keep polling it while the
		// window is open instead of waiting out Tpoll.
		l.pollFollowUp = true
	}
	deliver := l.processRx(p.Header, len(p.Payload) > 0)
	if deliver {
		d.deliverUp(l, p)
	}
}

// completeConnection finalises a link on the master: page success and
// connection callbacks.
func (d *Device) completeConnection(l *Link) {
	d.pageSucceed(l)
	if d.OnConnected != nil {
		d.OnConnected(l)
	}
}

// deliverUp routes a received payload to the LMP or host callback. The
// host's payload is lent for the duration of OnData; RxEnd poisons the
// codec once the handler returns (see Codec.Poison).
func (d *Device) deliverUp(l *Link, p *packet.Packet) {
	if p.LLID == packet.LLIDLMP {
		if d.OnLMP != nil {
			d.OnLMP(l, handUp(p.Payload))
		}
		return
	}
	if d.OnData != nil {
		d.OnData(l, p.Payload, p.LLID)
	}
}

// startSlaveLoop enters connection state as a slave: listen briefly at
// every master transmit slot, receive packets addressed to us, respond
// in the following slot.
func (d *Device) startSlaveLoop() {
	d.isMaster = false
	d.setState(StateConnection)
	d.onRx = d.slaveRx
	d.onRxStart = d.slaveRxStart
	d.scheduleSlaveListen(d.now())
}

// scheduleSlaveListen arms the next listen window: the next master
// transmit slot in active mode, or the next sniff anchor / hold end.
func (d *Device) scheduleSlaveListen(from sim.Time) {
	l := d.mlink
	if l == nil {
		return
	}
	switch l.mode {
	case ModeHold:
		d.slaveSlotFn = fnTagHoldResync
		d.tSlaveSlot.AtFn(maxTime(l.holdUntil, from), d.fnSlaveHoldResync)
		return
	case ModeSniff:
		d.slaveSlotFn = fnTagListen
		d.tSlaveSlot.AtFn(d.nextSniffAnchor(from), d.fnSlaveListenSlot)
		return
	case ModePark:
		d.slaveSlotFn = fnTagListen
		d.tSlaveSlot.AtFn(d.nextBeaconSlot(from), d.fnSlaveListenSlot)
		return
	}
	t := d.nextCLKSlotAfterLead(from)
	d.slaveSlotFn = fnTagListen
	d.tSlaveSlot.AtFn(t-sim.Time(d.leadTicks()), d.fnSlaveListenSlot)
}

// nextSniffAnchor returns the start time of the next even slot inside
// the sniff window at or after `from`, less the listen lead.
func (d *Device) nextSniffAnchor(from sim.Time) sim.Time {
	t := d.nextCLKSlotAfterLead(from)
	k := d.mlink.sniffWait(d.Clock.CLK(t) >> 2)
	return t + sim.Time(sim.Slots(2*uint64(k))) - sim.Time(d.leadTicks())
}

// slaveListenSlot opens the listen window at a master transmit slot.
func (d *Device) slaveListenSlot() {
	l := d.mlink
	if d.state != StateConnection || l == nil {
		return
	}
	d.checkSupervision(d.now())
	if d.mlink == nil {
		return // supervision timeout fired
	}
	if d.rxBusy || d.txCount > 0 {
		d.scheduleSlaveListen(d.now() + 1)
		return
	}
	// The window opened leadTicks early; the slot boundary is next.
	slotStart := d.nextCLKSlot(d.now())
	d.rxOn(d.chanFreq(l.sel, d.Clock.CLK(slotStart)))
	window := sim.Microseconds(carrierSenseUS)
	if l.mode == ModeSniff {
		window = sim.Microseconds(sniffListenUS)
	}
	d.tSlaveCls.At(slotStart + sim.Time(window))
	d.scheduleSlaveListen(slotStart + sim.Time(sim.Slots(2)) - sim.Time(d.leadTicks()))
}

// slaveRxStart aborts reception after the header when the packet is for
// another piconet member (the paper's Fig 5 shows exactly this: the RF
// stays on only "to the end of the first part of the transmission").
func (d *Device) slaveRxStart(tx *channel.Transmission) {
	meta, ok := tx.Meta.(AirMeta)
	if !ok || d.mlink == nil {
		return
	}
	if meta.AMAddr == d.mlink.AMAddr || meta.AMAddr == 0 {
		return // ours or broadcast: receive fully
	}
	// Access code (72) + FEC-1/3 header (54) = 126 us decides AM_ADDR.
	d.after(sim.Microseconds(126), func() {
		if d.rxBusy {
			d.rxOffForce()
		}
	})
}

// slaveRx handles packets in the slave connection loop.
func (d *Device) slaveRx(tx *channel.Transmission, rx *bits.Vec, collided bool) {
	l := d.mlink
	if l == nil {
		d.rxOff()
		return
	}
	if collided {
		d.rxOff()
		d.observeFreq(tx.Freq, false)
		l.rxFailed()
		return
	}
	clk := d.Clock.CLK(tx.Start)
	p, _, err := d.parse(tx, rx, l.Master.LAP, l.Master.UAP, clk)
	d.rxOff()
	if err != nil {
		d.Counters.RxErrors++
		d.observeFreq(tx.Freq, false)
		l.rxFailed()
		return
	}
	d.Counters.RxPackets++
	d.observeFreq(tx.Freq, true)
	if p.Header.AMAddr != l.AMAddr && p.Header.AMAddr != 0 {
		return // another member's packet that survived to delivery
	}
	l.lastHeardAt = d.now()
	if l.newconnPending {
		l.newconnPending = false
		if d.OnConnected != nil {
			d.OnConnected(l)
		}
	}
	if p.Header.Type.IsSCO() {
		d.handleSCORx(p, tx.Start)
		return
	}
	broadcast := p.Header.AMAddr == 0
	deliver := l.processRx(p.Header, len(p.Payload) > 0)
	if deliver {
		d.deliverUp(l, p)
	}
	if broadcast || p.Header.Type == packet.TypeNull {
		// Broadcasts and NULLs are not responded to.
		d.maybeReenterHold(l)
		return
	}
	// Respond in the slot following the master's packet.
	respAt := tx.Start + sim.Time(sim.Slots(uint64(p.Header.Type.Slots())))
	d.slaveRespFn = fnTagACLRespond
	d.tSlaveResp.AtFn(respAt, d.fnSlaveRespond)
}

// slaveRespond transmits the slave's response in the slot after the
// master's packet.
func (d *Device) slaveRespond() {
	l := d.mlink
	if l == nil {
		return
	}
	rclk := d.Clock.CLK(d.now())
	resp := l.nextPacket(false)
	d.transmit(resp, l, l.Master.UAP, rclk, d.chanFreq(l.sel, rclk))
	d.tSlaveDone.Schedule(sim.Duration(resp.AirBits() * sim.BitTicks))
}

// slaveRespDone runs after the response leaves the antenna (hold
// re-entry bookkeeping).
func (d *Device) slaveRespDone() {
	if l := d.mlink; l != nil {
		d.maybeReenterHold(l)
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
