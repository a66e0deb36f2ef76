package baseband

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// EnterSniff switches the link to sniff mode: the slave only listens at
// anchor windows every tsniffSlots slots (attempt master slots wide) and
// the master only addresses it there. Call on both ends with the same
// parameters (the lmp package negotiates this over the air).
func (l *Link) EnterSniff(tsniffSlots, attempt, offsetEvenSlots int) {
	if tsniffSlots < 2 || tsniffSlots%2 != 0 {
		panic(fmt.Sprintf("baseband: Tsniff must be even and >= 2, got %d", tsniffSlots))
	}
	if attempt < 1 || attempt > tsniffSlots/2 {
		panic(fmt.Sprintf("baseband: sniff attempt %d out of range", attempt))
	}
	l.mode = ModeSniff
	l.sniffT = tsniffSlots
	l.sniffAttempt = attempt
	l.sniffOffset = offsetEvenSlots
	l.dev.rescheduleSlaveLoop()
}

// ExitSniff returns the link to active mode.
func (l *Link) ExitSniff() {
	l.mode = ModeActive
	l.dev.rescheduleSlaveLoop()
}

// EnterHold suspends the link for holdSlots slots: the slave's RF goes
// completely dark, then it resynchronises. Call on both ends.
func (l *Link) EnterHold(holdSlots int) {
	l.enterHold(holdSlots, false)
}

// EnterHoldRepeating is the paper's Fig 12 workload: the slave re-enters
// hold after every resynchronisation, indefinitely.
func (l *Link) EnterHoldRepeating(holdSlots int) {
	l.enterHold(holdSlots, true)
}

func (l *Link) enterHold(holdSlots int, repeat bool) {
	if holdSlots < 1 {
		panic("baseband: hold duration must be positive")
	}
	l.mode = ModeHold
	l.holdT = holdSlots
	l.autoHold = repeat
	l.holdUntil = l.dev.now() + sim.Time(sim.Slots(uint64(holdSlots)))
	l.dev.rescheduleSlaveLoop()
}

// EnterPark parks the link: the slave stops participating but stays
// synchronised by listening to the master's broadcast beacon every
// beaconSlots slots. Call on both ends with the same period.
func (l *Link) EnterPark(beaconSlots int) {
	if beaconSlots < 2 || beaconSlots%2 != 0 {
		panic(fmt.Sprintf("baseband: beacon period must be even and >= 2, got %d", beaconSlots))
	}
	l.mode = ModePark
	l.dev.beaconEverySlots = beaconSlots
	l.dev.rescheduleSlaveLoop()
}

// Unpark returns a parked link to active mode. The parked silence was
// negotiated, so supervision restarts from the unpark instant —
// parked slaves never transmit, which makes the pre-park baseline
// stale by construction (the same carve-out hold mode gets while
// suspended).
func (l *Link) Unpark() {
	l.mode = ModeActive
	l.lastHeardAt = l.dev.now()
	l.dev.rescheduleSlaveLoop()
}

// rescheduleSlaveLoop re-arms the slave listen loop after a mode change.
// On a master it only wakes a long-skipped TX loop: the mode change may
// have created work earlier than the parked wake-up deadline.
func (d *Device) rescheduleSlaveLoop() {
	if d.isMaster {
		d.wakeMaster()
		return
	}
	if d.state != StateConnection || d.mlink == nil {
		return
	}
	d.gen++ // drop previously scheduled closure events
	for _, t := range []*sim.Timer{d.tSlaveSlot, d.tSlaveCls, d.tSlaveResp, d.tSlaveDone, d.tHoldStep} {
		t.Stop() // and the timer-armed listen/close/response windows
	}
	d.rxOff()
	d.onRx = d.slaveRx
	d.onRxStart = d.slaveRxStart
	d.scheduleSlaveListen(d.now())
}

// slaveHoldResync runs when a hold period expires: the receiver stays on
// continuously (retuning at every master slot) until the master is heard
// or the resync window closes — the cost Fig 12 measures.
func (d *Device) slaveHoldResync() {
	l := d.mlink
	if l == nil || d.state != StateConnection {
		return
	}
	l.resyncUntil = d.now() + sim.Time(sim.Microseconds(holdResyncUS))
	d.holdResyncStep()
}

// holdResyncStep retunes the open receiver at each master slot during
// the resync window.
func (d *Device) holdResyncStep() {
	l := d.mlink
	if l == nil || d.state != StateConnection || l.mode != ModeHold {
		return
	}
	now := d.now()
	if now >= l.resyncUntil {
		// Window over. In this exact-clock simulation the slave is still
		// in sync; it just never heard a packet (master had nothing to
		// say). Continue per policy.
		d.rxOff()
		d.finishHoldCycle(l)
		return
	}
	if !d.rxBusy && d.txCount == 0 {
		slot := d.nextCLKSlot(now)
		d.rxOn(d.chanFreq(l.sel, d.Clock.CLK(slot)))
	}
	next := d.nextCLKSlot(now + 1)
	if sim.Time(next) > l.resyncUntil {
		next = l.resyncUntil
	}
	d.tHoldStep.At(next)
}

// resyncSlots is the resync listen window rounded up to whole slots;
// both ends use it to advance the hold anchor deterministically.
func (d *Device) resyncSlots() uint64 {
	ticks := uint64(sim.Microseconds(holdResyncUS))
	return (ticks + sim.SlotTicks - 1) / sim.SlotTicks
}

// nextHoldAnchor advances a repeating hold period: old expiry plus the
// full resync window plus the hold duration. The formula depends only on
// shared state (holdUntil, config), so master and slave stay in
// lockstep without exchanging timing.
func (l *Link) nextHoldAnchor(d *Device) sim.Time {
	base := l.holdUntil + sim.Time(sim.Slots(d.resyncSlots()))
	if base < d.now() {
		base = d.now()
	}
	return d.nextCLKSlot(base) + sim.Time(sim.Slots(uint64(l.holdT)))
}

// finishHoldCycle decides what follows a completed hold+resync cycle.
func (d *Device) finishHoldCycle(l *Link) {
	if l.autoHold {
		l.holdUntil = l.nextHoldAnchor(d)
		d.rescheduleSlaveLoop()
		return
	}
	l.mode = ModeActive
	d.rescheduleSlaveLoop()
}

// maybeReenterHold runs after a slave finishes handling a reception. A
// one-shot hold exits to active on first contact; a repeating hold keeps
// listening for the full resync window (the clock-drift guard the paper
// charges hold mode for), with the window's own expiry closing the cycle.
func (d *Device) maybeReenterHold(l *Link) {
	if l.mode != ModeHold || d.now() < l.holdUntil {
		return
	}
	if l.autoHold {
		return // resync window still running; holdResyncStep closes it
	}
	l.resyncUntil = d.now() // stop the resync loop
	d.rxOff()
	d.finishHoldCycle(l)
}

// masterHoldResynced mirrors finishHoldCycle on the master when the
// held slave answers its resync poll; the shared anchor formula keeps
// the cycles aligned.
func (d *Device) masterHoldResynced(l *Link) {
	if l.autoHold {
		l.holdUntil = l.nextHoldAnchor(d)
		return
	}
	l.mode = ModeActive
}

// nextBeaconSlot returns the next even slot whose index is a beacon
// position (for parked slaves).
func (d *Device) nextBeaconSlot(from sim.Time) sim.Time {
	period := uint32(d.beaconEverySlots / 2)
	if period == 0 {
		period = 32
	}
	t := d.nextCLKSlotAfterLead(from)
	for {
		if (d.Clock.CLK(t)>>2)%period == 0 {
			return t - sim.Time(d.leadTicks())
		}
		t += sim.Time(sim.Slots(2))
	}
}

// beaconDue reports whether the master should broadcast a beacon in the
// even slot starting now (some link is parked and the slot index is a
// beacon position).
func (d *Device) beaconDue(now sim.Time) bool {
	period := uint32(d.beaconEverySlots / 2)
	if period == 0 {
		return false
	}
	parked := false
	for _, l := range d.links {
		if l != nil && l.mode == ModePark {
			parked = true
			break
		}
	}
	return parked && (d.Clock.CLK(now)>>2)%period == 0
}

// transmitBeacon broadcasts the park-mode beacon (an AM_ADDR-0 NULL).
func (d *Device) transmitBeacon(now sim.Time) {
	clk := d.Clock.CLK(now)
	p := &packet.Packet{
		AccessLAP: d.cfg.Addr.LAP,
		Header:    &packet.Header{AMAddr: 0, Type: packet.TypeNull},
	}
	d.transmit(p, nil, d.cfg.Addr.UAP, clk, d.chanFreq(d.ownSel, clk))
}
