package baseband

import (
	"fmt"

	"repro/internal/hop"
	"repro/internal/packet"
	"repro/internal/power"
	"repro/internal/sim"
)

// Checkpoint/restore for the link controller. A device is captured at a
// quiescent slot edge only — no packet mid-air, no transmission leaving
// the antenna, state STANDBY or CONNECTION, no half-finished connection
// handshake — so the whole capture is plain state plus the (at, seq)
// positions of the armed connection timers. Page/inquiry state
// machines never appear in a checkpoint: their states are excluded by
// the contract, and setState stops every timer on the way into STANDBY
// or CONNECTION. Closure-scheduled events (Device.after/at) pending at
// a quiescent instant are generation-guarded no-ops by construction —
// the only connection-state site is the header-abort, which requires a
// reception in progress — so they are deliberately not captured.

// TimerArm is one armed timer's position in the global event order.
type TimerArm struct {
	Timer int // index into connTimers
	At    sim.Time
	Seq   uint64
}

// OutMsg mirrors one queued upper-layer payload for the capture.
type OutMsg struct {
	Data []byte
	LLID uint8
}

// LinkCheckpoint is the capture of one ACL link end. Links are keyed by
// Peer address, which is unique among a device's links (a scatternet
// bridge's suspended memberships reference different masters).
type LinkCheckpoint struct {
	AMAddr     uint8
	Peer       BDAddr
	Master     BDAddr
	PacketType packet.Type

	Txq         []OutMsg
	Pending     *OutMsg
	PendingSent bool
	SeqnOut     bool
	ArqnOut     bool
	SeqnIn      bool
	SeqnInValid bool

	CreatedAt       sim.Time
	LastAddressedAt sim.Time
	LastHeardAt     sim.Time
	PollFollowUp    bool

	Mode         Mode
	SniffT       int
	SniffAttempt int
	SniffOffset  int
	HoldUntil    sim.Time
	HoldT        int
	AutoHold     bool
	ResyncUntil  sim.Time

	TxData int
	RxData int

	// Attached links live in the master's AM_ADDR table or as the
	// slave's mlink; a detached link belongs to a suspended scatternet
	// membership and is only reachable through the relay layer's
	// membership captures.
	Attached bool
}

// SCOCheckpoint is one voice reservation; the underlying ACL link is
// identified by its peer address. Source/Sink closures are not captured
// — the traffic layer that installed them re-wires them after restore.
type SCOCheckpoint struct {
	ACLPeer   BDAddr
	Type      packet.Type
	TscoSlots int
	DscoEven  int
	TxFrames  int
	RxFrames  int
}

// DeviceCheckpoint is one device's full capture.
type DeviceCheckpoint struct {
	// Config is the post-Normalize configuration including the drawn
	// ClockPhase and Seed, so reconstruction never consumes RNG draws.
	Config      Config
	RNGState    uint64
	ClockOffset uint32

	State        State
	IsMaster     bool
	LastServedAM uint8
	BeaconEvery  int
	AFHMap       []byte // 10-byte LMP bitmask; nil = full 79-channel set
	Assess       Assessment
	Counters     Counters

	TxMeter power.MeterState
	RxMeter power.MeterState

	TunedFreq int // receiver frequency, -1 = chain off
	SigFreq   int64

	MasterParked bool

	MasterRespAt sim.Time
	SCORespIdx   int // index into SCOs owing the next return frame, -1 = none

	Links []LinkCheckpoint
	MLink int // index into Links of the slave's master link, -1 = none
	SCOs  []SCOCheckpoint

	Timers []TimerArm
}

// connTimers lists the connection-state timers, the only ones armable
// in STANDBY or CONNECTION. A TimerArm names its timer by index into
// this list; every timer has one callback, so the index is all a
// restore needs to re-arm it.
func (d *Device) connTimers() []*sim.Timer {
	return []*sim.Timer{
		d.tMasterSlot, d.tMasterOpen, d.tMasterCls,
		d.tSlaveSlot, d.tHoldResync, d.tSlaveCls,
		d.tSlaveResp, d.tScoResp, d.tSlaveDone, d.tHoldStep,
	}
}

// Quiescent reports whether the device is capturable right now: settled
// in STANDBY or CONNECTION with nothing mid-air, mid-transmit or
// mid-handshake. The channel-level half of the contract (no in-flight
// transmissions) is the caller's to check.
func (d *Device) Quiescent() bool { return d.quiescenceBlocker() == "" }

// quiescenceBlocker names what blocks a capture, or returns "".
func (d *Device) quiescenceBlocker() string {
	if d.state != StateStandby && d.state != StateConnection {
		return "state " + d.state.String()
	}
	if d.rxBusy {
		return "reception in progress"
	}
	if d.txCount != 0 {
		return "transmission leaving the antenna"
	}
	for _, l := range d.links {
		if l != nil && l.newconnPending {
			return "connection handshake incomplete"
		}
	}
	if d.mlink != nil && d.mlink.newconnPending {
		return "connection handshake incomplete"
	}
	return ""
}

// Checkpoint captures the device. It fails unless the device is
// quiescent (see Quiescent); extraLinks lists suspended-membership
// links (scatternet bridges) that must ride the capture even though no
// device field references them.
func (d *Device) Checkpoint(extraLinks []*Link) (*DeviceCheckpoint, error) {
	if b := d.quiescenceBlocker(); b != "" {
		return nil, fmt.Errorf("baseband: %s not quiescent: %s", d.name, b)
	}
	ck := &DeviceCheckpoint{
		Config:       d.cfg,
		RNGState:     d.rng.State(),
		ClockOffset:  d.Clock.Offset(),
		State:        d.state,
		IsMaster:     d.isMaster,
		LastServedAM: d.lastServedAM,
		BeaconEvery:  d.beaconEverySlots,
		Assess:       d.assess,
		Counters:     d.Counters,
		TxMeter:      d.TxMeter.CheckpointState(),
		RxMeter:      d.RxMeter.CheckpointState(),
		TunedFreq:    d.radio.Freq(),
		SigFreq:      d.SigFreq.Get(),
		MasterParked: d.masterParked,
		MasterRespAt: d.masterRespAt,
		SCORespIdx:   -1,
		MLink:        -1,
	}
	if d.afhMap != nil {
		ck.AFHMap = d.afhMap.Bitmask()
	}

	capture := func(l *Link, attached bool) {
		lc := LinkCheckpoint{
			AMAddr:     l.AMAddr,
			Peer:       l.Peer,
			Master:     l.Master,
			PacketType: l.PacketType,

			PendingSent: l.pendingSent,
			SeqnOut:     l.seqnOut,
			ArqnOut:     l.arqnOut,
			SeqnIn:      l.seqnIn,
			SeqnInValid: l.seqnInValid,

			CreatedAt:       l.createdAt,
			LastAddressedAt: l.lastAddressedAt,
			LastHeardAt:     l.lastHeardAt,
			PollFollowUp:    l.pollFollowUp,

			Mode:         l.mode,
			SniffT:       l.sniffT,
			SniffAttempt: l.sniffAttempt,
			SniffOffset:  l.sniffOffset,
			HoldUntil:    l.holdUntil,
			HoldT:        l.holdT,
			AutoHold:     l.autoHold,
			ResyncUntil:  l.resyncUntil,

			TxData:   l.TxData,
			RxData:   l.RxData,
			Attached: attached,
		}
		for _, m := range l.txq[l.txqHead:] {
			lc.Txq = append(lc.Txq, OutMsg{Data: append([]byte(nil), m.data...), LLID: m.llid})
		}
		if l.pending != nil {
			lc.Pending = &OutMsg{Data: append([]byte(nil), l.pending.data...), LLID: l.pending.llid}
		}
		ck.Links = append(ck.Links, lc)
	}
	// Fixed AM_ADDR order for the master's table, then the slave link,
	// then suspended-membership links in the caller's order — a
	// deterministic order the restore reproduces exactly.
	for am := uint8(1); am <= 7; am++ {
		if l := d.links[am]; l != nil {
			capture(l, true)
		}
	}
	if d.mlink != nil {
		ck.MLink = len(ck.Links)
		capture(d.mlink, true)
	}
	for _, l := range extraLinks {
		capture(l, false)
	}

	for i, sco := range d.scoLinks {
		if sco.ACL == nil {
			return nil, fmt.Errorf("baseband: %s has an SCO link without an ACL", d.name)
		}
		ck.SCOs = append(ck.SCOs, SCOCheckpoint{
			ACLPeer:   sco.ACL.Peer,
			Type:      sco.Type,
			TscoSlots: sco.TscoSlots,
			DscoEven:  sco.DscoEven,
			TxFrames:  sco.TxFrames,
			RxFrames:  sco.RxFrames,
		})
		if d.scoRespLink == sco {
			ck.SCORespIdx = i
		}
	}

	for i, t := range d.connTimers() {
		if at, seq, ok := t.Pending(); ok {
			ck.Timers = append(ck.Timers, TimerArm{Timer: i, At: at, Seq: seq})
		}
	}
	// Any timer outside the connection set armed here would mean the
	// state contract above is broken; fail loudly rather than silently
	// dropping an event.
	armed := 0
	for _, t := range d.stateTimers {
		if t.Armed() {
			armed++
		}
	}
	if armed != len(ck.Timers) {
		return nil, fmt.Errorf("baseband: %s has %d armed timers but only %d are capturable",
			d.name, armed, len(ck.Timers))
	}
	return ck, nil
}

// RestoreCheckpoint imposes ck on a freshly constructed device whose
// kernel clock already stands at the snapshot instant. Timer re-arms
// are appended to set (executed later, in global (at, seq) order,
// alongside every other layer's). forkSeed perturbs the device's RNG
// stream (see sim.ForkState); zero resumes it exactly. It returns the
// restored links in capture order, so upper layers can re-attach their
// per-link state by index or peer address.
func (d *Device) RestoreCheckpoint(ck *DeviceCheckpoint, forkSeed uint64, set *sim.RearmSet) ([]*Link, error) {
	if d.state != StateStandby || d.nLinks != 0 || d.mlink != nil {
		return nil, fmt.Errorf("baseband: restore target %s is not a fresh device", d.name)
	}
	d.rng.SetState(sim.ForkState(ck.RNGState, forkSeed))
	d.Clock.SetOffset(ck.ClockOffset)
	d.state = ck.State
	d.isMaster = ck.IsMaster
	d.lastServedAM = ck.LastServedAM
	d.beaconEverySlots = ck.BeaconEvery
	d.assess = ck.Assess
	d.Counters = ck.Counters
	if ck.AFHMap != nil {
		m, err := hop.FromBitmask(ck.AFHMap)
		if err != nil {
			return nil, fmt.Errorf("baseband: %s AFH map: %w", d.name, err)
		}
		d.afhMap = m
	}

	links := make([]*Link, 0, len(ck.Links))
	for i := range ck.Links {
		lc := &ck.Links[i]
		l := &Link{
			dev:        d,
			AMAddr:     lc.AMAddr,
			Peer:       lc.Peer,
			Master:     lc.Master,
			sel:        hop.NewSelector(lc.Master.Addr28()),
			PacketType: lc.PacketType,

			pendingSent: lc.PendingSent,
			seqnOut:     lc.SeqnOut,
			arqnOut:     lc.ArqnOut,
			seqnIn:      lc.SeqnIn,
			seqnInValid: lc.SeqnInValid,

			createdAt:       lc.CreatedAt,
			lastAddressedAt: lc.LastAddressedAt,
			lastHeardAt:     lc.LastHeardAt,
			pollFollowUp:    lc.PollFollowUp,

			mode:         lc.Mode,
			sniffT:       lc.SniffT,
			sniffAttempt: lc.SniffAttempt,
			sniffOffset:  lc.SniffOffset,
			holdUntil:    lc.HoldUntil,
			holdT:        lc.HoldT,
			autoHold:     lc.AutoHold,
			resyncUntil:  lc.ResyncUntil,

			TxData: lc.TxData,
			RxData: lc.RxData,
		}
		for _, m := range lc.Txq {
			l.txq = append(l.txq, outMsg{data: append([]byte(nil), m.Data...), llid: m.LLID})
		}
		if lc.Pending != nil {
			l.cur = outMsg{data: append([]byte(nil), lc.Pending.Data...), llid: lc.Pending.LLID}
			l.pending = &l.cur
		}
		if lc.Attached {
			if ck.IsMaster {
				d.links[l.AMAddr] = l
				d.nLinks++
			} else if i == ck.MLink {
				d.mlink = l
			}
		}
		links = append(links, l)
	}

	for _, sc := range ck.SCOs {
		var acl *Link
		for _, l := range links {
			if l.Peer == sc.ACLPeer {
				acl = l
				break
			}
		}
		if acl == nil {
			return nil, fmt.Errorf("baseband: %s SCO references unknown link %v", d.name, sc.ACLPeer)
		}
		d.scoLinks = append(d.scoLinks, &SCOLink{
			dev: d, ACL: acl, Type: sc.Type,
			TscoSlots: sc.TscoSlots, DscoEven: sc.DscoEven,
			TxFrames: sc.TxFrames, RxFrames: sc.RxFrames,
		})
	}
	if ck.SCORespIdx >= 0 {
		if ck.SCORespIdx >= len(d.scoLinks) {
			return nil, fmt.Errorf("baseband: %s SCO response index %d out of range", d.name, ck.SCORespIdx)
		}
		d.scoRespLink = d.scoLinks[ck.SCORespIdx]
	}

	// Receive dispatch and signals for the restored state.
	d.SigState.Set(d.state.String())
	if d.state == StateConnection {
		if d.isMaster {
			d.onRx = d.masterRx
		} else {
			d.onRx = d.slaveRx
			d.onRxStart = d.slaveRxStart
		}
	}
	if ck.TunedFreq >= 0 {
		d.radio.Tune(ck.TunedFreq)
		d.SigRxOn.Set(true)
	}
	d.SigFreq.Set(ck.SigFreq)
	d.TxMeter.RestoreState(ck.TxMeter)
	d.RxMeter.RestoreState(ck.RxMeter)

	d.masterParked = ck.MasterParked

	d.masterRespAt = ck.MasterRespAt

	timers := d.connTimers()
	for _, arm := range ck.Timers {
		if arm.Timer < 0 || arm.Timer >= len(timers) {
			return nil, fmt.Errorf("baseband: %s timer index %d out of range", d.name, arm.Timer)
		}
		t := timers[arm.Timer]
		set.Add(arm.At, arm.Seq, func() { t.At(arm.At) })
	}
	return links, nil
}
