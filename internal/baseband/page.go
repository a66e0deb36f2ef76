package baseband

import (
	"repro/internal/bits"
	"repro/internal/btclock"
	"repro/internal/channel"
	"repro/internal/hop"
	"repro/internal/packet"
	"repro/internal/sim"
)

// pageScanState tracks the scan-window discipline across handshake
// attempts: a failed handshake resumes the current window if still open,
// otherwise waits for the next interval.
type pageScanState struct {
	inited     bool
	windowEnd  sim.Time
	nextWindow sim.Time
}

type pageState struct {
	target          BDAddr
	dacSel          *hop.Selector
	id              *cachedID // pre-assembled ID for the target's LAP
	est             *btclock.EstimatedClock
	trainA          bool
	nextTrainSwitch sim.Time
	deadline        sim.Time
	started         sim.Time
	done            func(*Link, bool)
	lastSlotStart   sim.Time
	lastX1, lastX2  uint32
	tookSlots       uint64
}

// EstimateOf converts an inquiry result into the clock estimate paging
// needs, optionally with a deliberate error in half slots (for the
// estimate-robustness ablation).
func (d *Device) EstimateOf(r InquiryResult, errHalfSlots int32) *btclock.EstimatedClock {
	return btclock.Estimate(d.Clock, r.CLKN, r.At, errHalfSlots)
}

// StartPage begins paging target to make it a slave of this device's
// piconet. est is the target-clock estimate from inquiry; done fires
// with the established link, or nil on timeout (in slots).
func (d *Device) StartPage(target BDAddr, est *btclock.EstimatedClock, timeoutSlots int, done func(*Link, bool)) {
	d.setState(StatePage)
	d.pg = pageState{
		target:          target,
		dacSel:          hop.NewSelector(target.Addr28()),
		id:              newCachedID(target.LAP),
		est:             est,
		trainA:          true,
		nextTrainSwitch: d.now() + sim.Time(sim.Slots(nPage*16)),
		deadline:        d.now() + sim.Time(sim.Slots(uint64(timeoutSlots))),
		started:         d.now(),
		done:            done,
	}
	d.onRx = d.pageRx
	d.armPageDeadline()
	d.tPgSlot.At(d.Clock.NextTickTime(d.now(), 4, 0))
}

// PageSlots reports how many slots the last completed page procedure
// took (frozen at success or failure).
func (d *Device) PageSlots() uint64 { return d.pg.tookSlots }

// armPageDeadline re-registers the overall page timeout under the
// current state generation (transitions invalidate the previous one).
func (d *Device) armPageDeadline() {
	if d.pg.deadline <= d.now() {
		d.pageFail()
		return
	}
	d.tPgDeadln.At(d.pg.deadline)
}

// pageFail aborts the page procedure.
func (d *Device) pageFail() {
	done := d.pg.done
	if done == nil {
		return
	}
	d.pg.done = nil
	d.pg.tookSlots = uint64(d.now()-d.pg.started) / sim.SlotTicks
	d.setState(StateStandby)
	d.rxOffForce()
	done(nil, false)
}

// pageSucceed completes the page procedure with an established link.
func (d *Device) pageSucceed(l *Link) {
	done := d.pg.done
	d.pg.done = nil
	d.pg.tookSlots = uint64(d.now()-d.pg.started) / sim.SlotTicks
	if done != nil {
		done(l, true)
	}
}

// resumePageTrains returns to the page state after a failed handshake.
func (d *Device) resumePageTrains() {
	if d.pg.done == nil {
		return
	}
	d.setState(StatePage)
	d.onRx = d.pageRx
	d.armPageDeadline()
	d.tPgSlot.At(d.Clock.NextTickTime(d.now(), 4, 0))
}

// pageTxSlot transmits a two-ID page train step, mirroring the inquiry
// train but hopping on the target's DAC sequence at the estimated clock.
func (d *Device) pageTxSlot() {
	if d.state != StatePage {
		return
	}
	if d.rxBusy {
		d.tPgSlot.Schedule(sim.Slots(2))
		return
	}
	d.rxOff()
	now := d.now()
	if now >= d.pg.nextTrainSwitch {
		d.pg.trainA = !d.pg.trainA
		d.pg.nextTrainSwitch = now + sim.Time(sim.Slots(nPage*16))
	}
	trainA := d.pg.trainA
	clke := d.pg.est.CLKE(now)
	d.pg.lastSlotStart = now
	d.pg.lastX1 = hop.TrainPhase(clke, trainA)
	d.pg.lastX2 = hop.TrainPhase(clke+1, trainA)

	d.transmitID(d.pg.id, d.pg.dacSel.Page(clke, trainA))
	d.tPgSecond.Schedule(sim.HalfSlotTicks)

	d.tPgWin1.Schedule(sim.Slots(1) - d.leadTicks())
	d.tPgWin2.Schedule(sim.Slots(1) + sim.HalfSlotTicks)
	d.tPgSlot.Schedule(sim.Slots(2))
}

// pageSecondID transmits the second page ID half a slot into the step.
func (d *Device) pageSecondID() {
	if d.rxBusy {
		return
	}
	d.transmitID(d.pg.id, d.pg.dacSel.Page(d.pg.est.CLKE(d.now()), d.pg.trainA))
}

// pageRxWin1 opens the response window for the first page ID.
func (d *Device) pageRxWin1() {
	if !d.rxBusy {
		d.rxOn(d.pg.dacSel.RespForX(d.pg.lastX1))
	}
}

// pageRxWin2 opens the response window for the second page ID.
func (d *Device) pageRxWin2() {
	if !d.rxBusy {
		d.rxOn(d.pg.dacSel.RespForX(d.pg.lastX2))
	}
}

// pageRx handles the slave's ID response while paging.
func (d *Device) pageRx(tx *channel.Transmission, rx *bits.Vec, collided bool) {
	defer d.rxOff()
	if collided {
		return
	}
	p, _, err := d.parse(tx, rx, d.pg.target.LAP, 0, 0)
	if err != nil || !p.IsID() {
		if err != nil {
			d.Counters.RxErrors++
		}
		return
	}
	// Which train phase elicited this response? First-half responses
	// arrive one slot after the step start, second-half 1.5 slots.
	x := d.pg.lastX1
	if tx.Start >= d.pg.lastSlotStart+sim.Time(sim.Slots(1))+sim.HalfSlotTicks/2 {
		x = d.pg.lastX2
	}
	d.masterResponse(x, tx.Start)
}

// masterResponse runs the master side of the page handshake: FHS one
// slot after the slave's response, then wait for the slave's ID ack.
func (d *Device) masterResponse(x uint32, respStart sim.Time) {
	d.setState(StateMasterResponse)
	d.armPageDeadline()
	target := d.pg.target
	amaddr := d.allocAMAddr()
	// The FHS is sent in the next master transmit slot (CLK mod 4 == 0),
	// never at a half-slot: its CLK field carries bits 27-2 only, and an
	// even-slot start makes the truncation exact so the slave's slot
	// grid lands precisely on the master's.
	fhsAt := d.nextCLKSlot(respStart + sim.Time(sim.Slots(1)))

	d.at(fhsAt, func() {
		fhs := &packet.Packet{
			AccessLAP: target.LAP,
			Header:    &packet.Header{Type: packet.TypeFHS},
			FHS: &packet.FHSPayload{
				LAP:    d.cfg.Addr.LAP,
				UAP:    d.cfg.Addr.UAP,
				NAP:    d.cfg.Addr.NAP,
				AMAddr: amaddr,
				CLK:    d.Clock.CLK(d.now()),
			},
		}
		d.transmit(fhs, nil, target.UAP, 0, d.pg.dacSel.RespForX(x+1))
	})
	// Listen for the slave's ID acknowledgement one slot after the FHS.
	ackAt := fhsAt + sim.Time(sim.Slots(1))
	d.at(ackAt-sim.Time(d.leadTicks()), func() {
		d.rxOn(d.pg.dacSel.RespForX(x + 2))
	})
	d.onRx = func(tx *channel.Transmission, rx *bits.Vec, collided bool) {
		defer d.rxOff()
		if collided {
			return
		}
		p, _, err := d.parse(tx, rx, target.LAP, 0, 0)
		if err != nil || !p.IsID() {
			return
		}
		// Ack received: the slave joined. Switch to the channel hopping
		// sequence and complete with POLL/response.
		l := newLink(d, amaddr, target, d.cfg.Addr)
		l.newconnPending = true
		d.links[amaddr] = l
		d.nLinks++
		d.startMasterLoop()
		d.armNewConnTimeout(l)
	}
	// pagerespTO: no ack -> back to trains.
	d.after(sim.Slots(pageRespTimeoutSlots), func() {
		d.rxOffForce()
		d.resumePageTrains()
	})
}

// armNewConnTimeout reverts an embryonic connection whose POLL/response
// exchange does not complete in time.
func (d *Device) armNewConnTimeout(l *Link) {
	d.after(sim.Slots(newConnTimeoutSlots), func() {
		if !l.newconnPending {
			return
		}
		d.links[l.AMAddr] = nil
		d.nLinks--
		if d.nLinks == 0 {
			d.isMaster = false
		}
		if d.now() < d.pg.deadline {
			d.resumePageTrains()
		} else {
			d.pageFail()
		}
	})
}

// allocAMAddr returns the next free active member address.
func (d *Device) allocAMAddr() uint8 {
	for am := uint8(1); am <= 7; am++ {
		if d.links[am] == nil {
			return am
		}
	}
	panic("baseband: piconet full (7 active slaves)")
}

// StartPageScan makes the device connectable: it listens on its own
// page-scan sequence for a window of PageScanWindowSlots every
// PageScanIntervalSlots (spec R1 discipline) and runs the slave side of
// the page handshake. The windowing is what makes a noise-broken
// handshake fatal within the paper's 1.28 s budget: the next window
// opens a full interval later.
func (d *Device) StartPageScan() {
	d.setState(StatePageScan)
	d.onRx = d.pageScanRx
	now := d.now()
	if !d.pgscan.inited || now >= d.pgscan.nextWindow {
		d.pgscan.inited = true
		d.pgscan.windowEnd = now + sim.Time(sim.Slots(uint64(d.cfg.PageScanWindowSlots)))
		d.pgscan.nextWindow = now + sim.Time(sim.Slots(uint64(d.cfg.PageScanIntervalSlots)))
	}
	if now < d.pgscan.windowEnd {
		d.resumeScan(d.ownSel)
		d.at(d.pgscan.windowEnd, d.pageScanWindowClosed)
		return
	}
	d.at(d.pgscan.nextWindow, d.reopenPageScan)
}

// pageScanWindowClosed darkens the receiver until the next scan window.
func (d *Device) pageScanWindowClosed() {
	if d.state != StatePageScan || d.rxBusy {
		return
	}
	d.rxOffForce()
	d.at(d.pgscan.nextWindow, d.reopenPageScan)
}

// reopenPageScan starts the next scan window.
func (d *Device) reopenPageScan() {
	if d.state != StatePageScan {
		return
	}
	d.pgscan.windowEnd = d.now() + sim.Time(sim.Slots(uint64(d.cfg.PageScanWindowSlots)))
	d.pgscan.nextWindow = d.now() + sim.Time(sim.Slots(uint64(d.cfg.PageScanIntervalSlots)))
	d.resumeScan(d.ownSel)
	d.at(d.pgscan.windowEnd, d.pageScanWindowClosed)
}

// pageScanRx triggers the slave response substate on an ID addressed to
// this device.
func (d *Device) pageScanRx(tx *channel.Transmission, rx *bits.Vec, collided bool) {
	if collided {
		return
	}
	p, _, err := d.parse(tx, rx, d.cfg.Addr.LAP, 0, 0)
	if err != nil || !p.IsID() {
		return
	}
	d.slaveResponse(tx)
}

// slaveResponse answers a page ID: echo the ID one slot later, then wait
// for the master's FHS.
func (d *Device) slaveResponse(idTx *channel.Transmission) {
	d.setState(StateSlaveResponse)
	d.rxOffForce()
	x := hop.ScanX(d.Clock.CLKN(idTx.Start))
	d.at(idTx.Start+sim.Time(sim.Slots(1)), func() {
		d.transmitID(d.idOwn, d.ownSel.RespForX(x))
	})
	fhsAt := idTx.Start + sim.Time(sim.Slots(2))
	d.at(fhsAt-sim.Time(d.leadTicks()), func() {
		d.rxOn(d.ownSel.RespForX(x + 1))
	})
	d.onRx = func(tx *channel.Transmission, rx *bits.Vec, collided bool) {
		if collided {
			return
		}
		p, _, err := d.parse(tx, rx, d.cfg.Addr.LAP, d.cfg.Addr.UAP, 0)
		if err != nil {
			d.Counters.RxErrors++
			return
		}
		if p.IsID() {
			// The master repeated its page ID: restart the response.
			d.slaveResponse(tx)
			return
		}
		if p.Header.Type != packet.TypeFHS || p.FHS == nil {
			return
		}
		d.rxOffForce()
		f := p.FHS
		master := BDAddr{LAP: f.LAP, UAP: f.UAP, NAP: f.NAP}
		d.Clock.SyncTo(f.CLK, tx.Start)
		l := newLink(d, f.AMAddr, master, master)
		l.newconnPending = true
		d.mlink = l
		// Acknowledge with an ID one slot after the FHS started.
		d.at(tx.Start+sim.Time(sim.Slots(1)), func() {
			d.transmitID(d.idOwn, d.ownSel.RespForX(x+2))
			d.after(sim.Microseconds(68), func() {
				d.startSlaveLoop()
				d.armSlaveNewConnTimeout()
			})
		})
	}
	// pagerespTO: no FHS -> back to page scan.
	d.after(sim.Slots(pageRespTimeoutSlots), func() {
		d.rxOffForce()
		d.StartPageScan()
	})
}

// armSlaveNewConnTimeout reverts the slave to page scan when the POLL
// never arrives.
func (d *Device) armSlaveNewConnTimeout() {
	l := d.mlink
	d.after(sim.Slots(newConnTimeoutSlots), func() {
		if l != nil && l.newconnPending && d.mlink == l {
			d.mlink = nil
			d.Clock.DropSync()
			d.StartPageScan()
		}
	})
}
