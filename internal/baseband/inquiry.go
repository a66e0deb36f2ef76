package baseband

import (
	"repro/internal/access"
	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/hop"
	"repro/internal/packet"
	"repro/internal/sim"
)

// InquiryResult is one discovered device: everything needed to page it.
type InquiryResult struct {
	Addr  BDAddr
	Class uint32
	CLKN  uint32   // the device's native clock as reported in its FHS
	At    sim.Time // when the FHS was transmitted (reference for CLKN)
}

type inquiryState struct {
	trainA          bool
	nextTrainSwitch sim.Time
	deadline        sim.Time
	started         sim.Time
	results         []InquiryResult
	max             int
	done            func([]InquiryResult, bool)
	lastSlotStart   sim.Time
	lastX1, lastX2  uint32
	tookSlots       uint64
}

type scanState struct {
	armed     bool // backoff completed: respond to the next ID
	inBackoff bool
	respN     uint32 // response phase counter (spec N)
}

// StartInquiry begins the inquiry procedure: ID trains on the GIAC
// inquiry hopping sequence, listening for FHS responses. done fires with
// the discovered devices when maxResults are found or the timeout (in
// slots) expires; ok means at least maxResults responses arrived.
func (d *Device) StartInquiry(timeoutSlots int, maxResults int, done func([]InquiryResult, bool)) {
	d.setState(StateInquiry)
	d.inq = inquiryState{
		trainA:          true,
		nextTrainSwitch: d.now() + sim.Time(sim.Slots(uint64(d.cfg.NInquiry*16))),
		deadline:        d.now() + sim.Time(sim.Slots(uint64(timeoutSlots))),
		started:         d.now(),
		max:             maxResults,
		done:            done,
	}
	d.onRx = d.inquiryRx
	d.tInqDeadln.At(d.inq.deadline)
	// Trains start at the next transmit (CLKN mod 4 == 0) boundary.
	d.tInqSlot.At(d.Clock.NextTickTime(d.now(), 4, 0))
}

// InquirySlots reports how many slots the last completed inquiry took
// (frozen when the procedure finished).
func (d *Device) InquirySlots() uint64 { return d.inq.tookSlots }

// inquiryTxSlot transmits the two-ID train step and arms the response
// windows of the following slot, then reschedules itself.
func (d *Device) inquiryTxSlot() {
	if d.state != StateInquiry {
		return
	}
	if d.rxBusy {
		// An FHS response is still arriving (it may overrun into our TX
		// slot); skip this train step.
		d.tInqSlot.Schedule(sim.Slots(2))
		return
	}
	d.rxOff()
	now := d.now()
	if now >= d.inq.nextTrainSwitch {
		d.inq.trainA = !d.inq.trainA
		d.inq.nextTrainSwitch = now + sim.Time(sim.Slots(uint64(d.cfg.NInquiry*16)))
	}
	trainA := d.inq.trainA
	clkn := d.Clock.CLKN(now)
	d.inq.lastSlotStart = now
	d.inq.lastX1 = hop.TrainPhase(clkn, trainA)
	d.inq.lastX2 = hop.TrainPhase(clkn+1, trainA)

	d.transmitID(d.idGIAC, d.giacSel.Page(clkn, trainA))
	d.tInqSecond.Schedule(sim.HalfSlotTicks)

	// Response windows: FHS replies land one slot after each ID.
	d.tInqWin1.Schedule(sim.Slots(1) - d.leadTicks())
	d.tInqWin2.Schedule(sim.Slots(1) + sim.HalfSlotTicks)
	d.tInqSlot.Schedule(sim.Slots(2))
}

// inquirySecondID transmits the second ID of the train step, half a
// slot after the first.
func (d *Device) inquirySecondID() {
	if d.rxBusy {
		return
	}
	d.transmitID(d.idGIAC, d.giacSel.Page(d.Clock.CLKN(d.now()), d.inq.trainA))
}

// inquiryRxWin1 opens the response window for the first ID of the last
// train step.
func (d *Device) inquiryRxWin1() {
	if !d.rxBusy {
		d.rxOn(d.giacSel.RespForX(d.inq.lastX1))
	}
}

// inquiryRxWin2 opens the response window for the second ID.
func (d *Device) inquiryRxWin2() {
	if !d.rxBusy {
		d.rxOn(d.giacSel.RespForX(d.inq.lastX2))
	}
}

// inquiryRx handles packets while in inquiry state: FHS responses from
// scanners.
func (d *Device) inquiryRx(tx *channel.Transmission, rx *bits.Vec, collided bool) {
	defer d.rxOff()
	if collided {
		return
	}
	p, _, err := d.parse(tx, rx, access.GIAC, 0, 0)
	if err != nil {
		d.Counters.RxErrors++
		return
	}
	if p.IsID() {
		d.Counters.IDsHeard++
		return // another inquirer's train; not for us
	}
	if p.Header.Type != packet.TypeFHS || p.FHS == nil {
		return
	}
	d.Counters.FHSHeard++
	f := p.FHS
	res := InquiryResult{
		Addr:  BDAddr{LAP: f.LAP, UAP: f.UAP, NAP: f.NAP},
		Class: f.Class,
		CLKN:  f.CLK,
		At:    tx.Start,
	}
	// Deduplicate repeat responders.
	for i, r := range d.inq.results {
		if r.Addr == res.Addr {
			d.inq.results[i] = res
			return
		}
	}
	d.inq.results = append(d.inq.results, res)
	if len(d.inq.results) >= d.inq.max {
		d.finishInquiry()
	}
}

// finishInquiry ends the procedure and reports results.
func (d *Device) finishInquiry() {
	d.inq.tookSlots = uint64(d.now()-d.inq.started) / sim.SlotTicks
	st := d.inq
	d.setState(StateStandby)
	d.rxOffForce()
	if st.done != nil {
		st.done(st.results, len(st.results) >= st.max)
	}
}

// StartInquiryScan makes the device discoverable: the receiver stays on
// the inquiry-scan frequency (which moves every 1.28 s) and the device
// answers ID trains with FHS packets after the standard random backoff.
func (d *Device) StartInquiryScan() {
	d.setState(StateInquiryScan)
	d.scan = scanState{}
	d.onRx = d.inquiryScanRx
	d.resumeScan(d.giacSel)
}

// resumeScan opens the always-on scan receiver with sel's scan sequence
// and keeps it retuned at every 1.28 s phase change.
func (d *Device) resumeScan(sel *hop.Selector) {
	d.rxOn(sel.Scan(d.Clock.CLKN(d.now())))
	d.scheduleScanRetune(sel)
}

func (d *Device) scheduleScanRetune(sel *hop.Selector) {
	d.scanRetuneSel = sel
	d.tRetune.At(d.Clock.NextTickTime(d.now()+1, 1<<12, 0))
}

// scanRetune follows the 1.28 s scan-frequency phase while the scan
// receiver is open, then re-arms itself.
func (d *Device) scanRetune() {
	sel := d.scanRetuneSel
	if !d.rxBusy && !d.scan.inBackoff && d.radio.Freq() >= 0 {
		d.rxOn(sel.Scan(d.Clock.CLKN(d.now())))
	}
	d.scheduleScanRetune(sel)
}

// inquiryScanRx: IDs heard while discoverable trigger backoff, then an
// FHS response to the next ID (spec inquiry response procedure).
func (d *Device) inquiryScanRx(tx *channel.Transmission, rx *bits.Vec, collided bool) {
	if collided {
		return // stay listening
	}
	p, _, err := d.parse(tx, rx, access.GIAC, 0, 0)
	if err != nil || !p.IsID() {
		return // noise or a foreign FHS: keep scanning
	}
	d.Counters.IDsHeard++
	if !d.scan.armed {
		// First ID: back off a random number of slots, receiver dark.
		d.scan.inBackoff = true
		d.rxOffForce()
		backoff := uint64(d.rng.Intn(d.cfg.BackoffMaxSlots + 1))
		d.after(sim.Slots(backoff), func() {
			d.scan.inBackoff = false
			d.scan.armed = true
			d.resumeScan(d.giacSel)
		})
		return
	}
	// Second ID: respond with FHS one slot after the ID started.
	d.scan.armed = false
	d.rxOffForce()
	respX := hop.ScanX(d.Clock.CLKN(tx.Start))
	respFreq := d.giacSel.RespForX(respX)
	d.at(tx.Start+sim.Time(sim.Slots(1)), func() {
		fhs := &packet.Packet{
			AccessLAP: access.GIAC,
			Header:    &packet.Header{Type: packet.TypeFHS},
			FHS: &packet.FHSPayload{
				LAP:   d.cfg.Addr.LAP,
				UAP:   d.cfg.Addr.UAP,
				NAP:   d.cfg.Addr.NAP,
				Class: 0x00020C, // phone-ish class; cosmetic
				CLK:   d.Clock.CLKN(d.now()),
			},
		}
		d.transmit(fhs, nil, 0, 0, respFreq)
		d.scan.respN++
		// Return to scanning after the FHS leaves the antenna.
		d.after(sim.Duration(fhs.AirBits()*sim.BitTicks), func() {
			d.rxOn(d.giacSel.Scan(d.Clock.CLKN(d.now())))
		})
	})
}

// StopScan returns a scanning device to standby.
func (d *Device) StopScan() {
	d.setState(StateStandby)
	d.rxOffForce()
}
