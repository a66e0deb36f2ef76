package baseband

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/bits"
	"repro/internal/btclock"
	"repro/internal/channel"
	"repro/internal/hop"
	"repro/internal/packet"
	"repro/internal/power"
	"repro/internal/sim"
)

// AirMeta annotates transmissions so instrumentation (and the header
// early-abort model) can see what is on the air without reparsing bits.
type AirMeta struct {
	Type   packet.Type
	AMAddr uint8
	LAP    uint32
}

// Device is one Bluetooth unit: clock, radio control, link-controller
// state machine and (in connection state) the master scheduler or slave
// listener. It implements channel.Listener.
type Device struct {
	name  string
	k     *sim.Kernel
	radio *channel.Radio // this device's receiver and transmitter on the channel
	cfg   Config
	rng   *sim.Rand

	Clock   *btclock.Clock
	ownSel  *hop.Selector
	giacSel *hop.Selector

	state State
	gen   uint64 // generation counter: bumping invalidates stale events

	// RF bookkeeping.
	rxBusy  bool // mid-reception: hold the RX chain open
	txCount int  // nested transmissions guard (should stay 0/1)
	TxMeter *power.Meter
	RxMeter *power.Meter

	// Traced signals (the paper's waveforms).
	SigState *sim.Signal[string]
	SigTxOn  *sim.Signal[bool]
	SigRxOn  *sim.Signal[bool]
	SigFreq  *sim.Signal[int64]

	// Receive dispatch for the current state; set by each procedure.
	onRx func(tx *channel.Transmission, rx *bits.Vec, collided bool)
	// onRxStart lets connection-state slaves abort packets for other
	// members after the header; nil otherwise.
	onRxStart func(tx *channel.Transmission)

	inq    inquiryState
	scan   scanState
	pg     pageState
	pgscan pageScanState

	// Reusable timers for every self-rescheduling per-slot callback
	// (train steps, listen windows, poll loops, resync steps). Each is
	// allocated once here and re-armed per slot, so the hot loops never
	// hand the kernel a fresh closure. setState stops all of them —
	// the timer analogue of the generation bump that invalidates
	// closure-scheduled events.
	tInqSlot    *sim.Timer // inquiry train step (every 2 slots)
	tInqSecond  *sim.Timer // second ID of the train step (half slot)
	tInqWin1    *sim.Timer // response window for the first ID
	tInqWin2    *sim.Timer // response window for the second ID
	tInqDeadln  *sim.Timer // overall inquiry timeout
	tPgSlot     *sim.Timer // page train step
	tPgSecond   *sim.Timer // second page ID
	tPgWin1     *sim.Timer // page response window 1
	tPgWin2     *sim.Timer // page response window 2
	tPgDeadln   *sim.Timer // overall page timeout
	tMasterSlot *sim.Timer // master TX-opportunity loop
	tMasterOpen *sim.Timer // master response-listen open
	tMasterCls  *sim.Timer // master response-listen close
	tSlaveSlot  *sim.Timer // slave listen loop
	tHoldResync *sim.Timer // hold-period end (the listen loop's sibling)
	tSlaveCls   *sim.Timer // slave listen-window close
	tSlaveResp  *sim.Timer // slave ACL response transmission
	tScoResp    *sim.Timer // slave SCO return frame (tSlaveResp's sibling)
	tSlaveDone  *sim.Timer // post-response bookkeeping (hold re-entry)
	tHoldStep   *sim.Timer // hold-resync retune loop
	tRetune     *sim.Timer // scan-frequency retune (every 1.28 s)
	stateTimers []*sim.Timer

	// The transmit path's pre-bound end-of-air callback; binding it
	// once keeps a method-value allocation off the hot path.
	fnTxDone func()

	// Pre-assembled ID packets: an ID is just the 68-bit access code of
	// a LAP, so the on-air bits for the device's own LAP and the GIAC
	// are fixed for the device's lifetime (the page target's ID lives in
	// pageState). Transmitting them costs no assembly and no allocation.
	idOwn  *cachedID
	idGIAC *cachedID

	// The air path's reusable memory (never checkpointed; see
	// ARCHITECTURE.md "Performance model"): the codec every parse runs
	// through, and the free list of air buffers, each back from the
	// channel once its packet has left the air.
	codec   packet.Codec
	airFree []*airBuf
	chk     *cleanCheck // the poison build's cross-check of Clean; nil otherwise

	// Scratch for the timer callbacks (the state they would otherwise
	// capture in a closure).
	scanRetuneSel *hop.Selector // selector driving the scan retune loop
	masterRespAt  sim.Time      // response-slot start of the last master TX
	scoRespLink   *SCOLink      // voice link owing the next return frame

	// masterParked marks a master whose TX loop long-skipped to the next
	// deadline because no member had traffic, a due poll, an SCO
	// reservation or a beacon; new work re-arms the loop early (see
	// Link.Send and wakeMaster).
	masterParked bool

	// Connection state.
	isMaster         bool
	lastServedAM     uint8                // round-robin anchor for pickLink
	links            [8]*Link             // master: indexed by AM_ADDR (1-7)
	nLinks           int                  // live entries in links
	mlink            *Link                // slave: the link to the master
	beaconEverySlots int                  // park beacon period (master)
	scoLinks         []*SCOLink           // reserved voice channels
	ctlCache         map[ctlKey]*bits.Vec // assembled NULL/POLL patterns
	afhMap           *hop.ChannelMap      // adaptive hop set (nil = all 79)
	assess           Assessment           // per-frequency reception tallies

	// OnConnected fires when a connection completes (both roles).
	OnConnected func(l *Link)
	// OnDisconnected fires when a link dies: supervision timeout or an
	// explicit DropLink.
	OnDisconnected func(l *Link, reason string)
	// OnLMP receives LLID-3 payloads (the Link Manager's channel).
	OnLMP func(l *Link, payload []byte)
	// OnData receives LLID-1/2 payloads (the host's channel). The
	// payload is lent, not given: it is the device's parse buffer and
	// is valid only until the callback returns, so a consumer that
	// keeps the bytes copies them.
	OnData func(l *Link, payload []byte, llid uint8)

	// Counters for the experiments.
	Counters Counters
}

// Counters aggregates per-device protocol events.
type Counters struct {
	TxPackets    int
	RxPackets    int
	RxErrors     int // access-code hits that failed later checks
	Collisions   int
	IDsHeard     int
	FHSHeard     int
	Polls        int
	Retransmits  int
	DupsFiltered int
	// MembershipSwitches counts scatternet membership activations — how
	// often the radio retuned from one piconet's slot grid to another's.
	MembershipSwitches int
}

// FreqObs tallies reception outcomes on one RF channel.
type FreqObs struct {
	OK  int // packets that passed the HEC/CRC checks on this channel
	Bad int // collisions, jam hits and HEC/CRC failures
}

// Assessment is the per-frequency channel-assessment tally a device
// accumulates while in connection state: every reception outcome is
// booked against the RF channel it arrived on. The coexistence layer's
// classifier reads a window of these tallies, marks channels with a high
// error fraction as bad, and installs the surviving set as an AFH
// channel map over LMP — the learned counterpart of the oracle
// hop.ExcludeRange maps the early AFH experiments hand-picked.
type Assessment [hop.NumChannels]FreqObs

// New creates a device attached to a kernel and channel. Traced signals
// register with whatever tracers are already on the kernel.
func New(k *sim.Kernel, ch *channel.Channel, name string, cfg Config) *Device {
	cfg.Normalize()
	d := &Device{
		name:    name,
		k:       k,
		cfg:     cfg,
		rng:     sim.NewRand(cfg.Seed),
		Clock:   btclock.New(cfg.ClockPhase),
		ownSel:  hop.NewSelector(cfg.Addr.Addr28()),
		giacSel: hop.NewSelector(hop.Addr28(access.GIAC, 0)),
		TxMeter: power.NewMeter(k),
		RxMeter: power.NewMeter(k),
	}
	d.SigState = sim.NewString(k, name+".state", StateStandby.String())
	d.SigTxOn = sim.NewBool(k, name+".enable_tx_RF", false)
	d.SigRxOn = sim.NewBool(k, name+".enable_rx_RF", false)
	d.SigFreq = sim.NewInt(k, name+".freq", 7, 0)
	d.radio = ch.Radio(d)

	d.tInqSlot = k.NewTimer(d.inquiryTxSlot)
	d.tInqSecond = k.NewTimer(d.inquirySecondID)
	d.tInqWin1 = k.NewTimer(d.inquiryRxWin1)
	d.tInqWin2 = k.NewTimer(d.inquiryRxWin2)
	d.tInqDeadln = k.NewTimer(d.finishInquiry)
	d.tPgSlot = k.NewTimer(d.pageTxSlot)
	d.tPgSecond = k.NewTimer(d.pageSecondID)
	d.tPgWin1 = k.NewTimer(d.pageRxWin1)
	d.tPgWin2 = k.NewTimer(d.pageRxWin2)
	d.tPgDeadln = k.NewTimer(d.pageFail)
	d.tMasterSlot = k.NewTimer(d.masterSlot)
	d.tMasterOpen = k.NewTimer(d.masterRespOpen)
	d.tMasterCls = k.NewTimer(d.rxOffIfIdle)
	d.tSlaveSlot = k.NewTimer(d.slaveListenSlot)
	d.tHoldResync = k.NewTimer(d.slaveHoldResync)
	d.tSlaveCls = k.NewTimer(d.rxOffIfIdle)
	d.tSlaveResp = k.NewTimer(d.slaveRespond)
	d.tScoResp = k.NewTimer(d.scoRespond)
	d.tSlaveDone = k.NewTimer(d.slaveRespDone)
	d.tHoldStep = k.NewTimer(d.holdResyncStep)
	d.tRetune = k.NewTimer(d.scanRetune)
	d.stateTimers = append([]*sim.Timer{
		d.tInqSlot, d.tInqSecond, d.tInqWin1, d.tInqWin2, d.tInqDeadln,
		d.tPgSlot, d.tPgSecond, d.tPgWin1, d.tPgWin2, d.tPgDeadln,
		d.tRetune,
	}, d.connTimers()...)

	d.fnTxDone = d.txDone

	d.idOwn = newCachedID(d.cfg.Addr.LAP)
	d.idGIAC = newCachedID(access.GIAC)
	return d
}

// Name implements channel.Listener.
func (d *Device) Name() string { return d.name }

// Addr returns the device address.
func (d *Device) Addr() BDAddr { return d.cfg.Addr }

// State returns the current link-controller state.
func (d *Device) State() State { return d.state }

// IsMaster reports whether the device owns a piconet.
func (d *Device) IsMaster() bool { return d.isMaster }

// Links returns a snapshot of the master's links keyed by AM_ADDR.
// (Internally links live in a fixed AM_ADDR-indexed array; the map is
// built per call for the convenience of tests and tooling.)
func (d *Device) Links() map[uint8]*Link {
	m := make(map[uint8]*Link, d.nLinks)
	for am, l := range d.links {
		if l != nil {
			m[uint8(am)] = l
		}
	}
	return m
}

// MasterLink returns the slave's link to its master (nil if none).
func (d *Device) MasterLink() *Link { return d.mlink }

// setState transitions the state machine, invalidating every event
// scheduled under the previous state: closure-scheduled events die by
// the generation bump, timer-scheduled ones are stopped outright.
func (d *Device) setState(s State) {
	d.state = s
	d.gen++
	for _, t := range d.stateTimers {
		t.Stop()
	}
	d.masterParked = false
	d.SigState.Set(s.String())
	d.onRx = nil
	d.onRxStart = nil
}

// after schedules fn to run after delay unless the state machine has
// since transitioned.
func (d *Device) after(delay sim.Duration, fn func()) {
	gen := d.gen
	d.k.Schedule(delay, func() {
		if d.gen == gen {
			fn()
		}
	})
}

// at schedules fn at an absolute time under the same staleness rule.
func (d *Device) at(t sim.Time, fn func()) {
	gen := d.gen
	d.k.At(t, func() {
		if d.gen == gen {
			fn()
		}
	})
}

// now is shorthand for the kernel clock.
func (d *Device) now() sim.Time { return d.k.Now() }

// rxOn tunes the receiver to freq and raises enable_rx_RF.
func (d *Device) rxOn(freq int) {
	d.radio.Tune(freq)
	d.RxMeter.Set(true)
	d.SigRxOn.Set(true)
	d.SigFreq.Set(int64(freq))
}

// rxOff lowers the receiver unless a packet is mid-air for us; the
// reception handler decides again at RxEnd.
func (d *Device) rxOff() {
	if d.rxBusy {
		return
	}
	d.rxOffForce()
}

// rxOffForce unconditionally shuts the receiver, abandoning any packet
// in flight (state transitions, header-abort).
func (d *Device) rxOffForce() {
	d.rxBusy = false
	d.radio.Off()
	d.RxMeter.Set(false)
	d.SigRxOn.Set(false)
}

// transmit sends p at freq, driving the TX meter and signal for the
// packet's air time. p goes on the air as a frame (channel.Frame): a
// pooled air buffer holds a copy of it until End, and its bits are
// assembled only if the noise or a receiver needs them. l, when the
// packet belongs to a link, supplies its boxed AirMeta.
func (d *Device) transmit(p *packet.Packet, l *Link, uap uint8, clk uint32, freq int) {
	var meta any
	if l != nil {
		meta = l.airMeta(p)
	} else {
		m := AirMeta{Type: p.Type(), LAP: p.AccessLAP}
		if p.Header != nil {
			m.AMAddr = p.Header.AMAddr
		}
		meta = m
	}
	b := d.takeAir()
	b.p, b.uap, b.clk = b.c.Hold(p), uap, clk
	d.txOn(freq)
	d.radio.TransmitFrame(freq, b, meta, b.done)
	d.Counters.TxPackets++
}

// airBuf is one pooled transmission, the channel.Frame of its packet:
// a copy of the packet, held from transmit until End because the link
// rebuilds its own packet meanwhile, and the air vector its bits are
// assembled into if anyone reads them. Its end-of-air callback is bound
// once: the channel runs it after the packet's last RxEnd, and it
// poisons the buffer and returns it to the device's free list.
type airBuf struct {
	d    *Device
	c    packet.Codec   // holds the copy; its staging space assembles it
	p    *packet.Packet // the held copy, in c
	uap  uint8
	clk  uint32
	v    bits.Vec
	done func()
}

// AirBits implements channel.Frame.
func (b *airBuf) AirBits() int { return b.p.AirBits() }

// Code implements channel.Frame. The held packet assembles with the
// buffer's own staging space, never the device's codec, which may hold
// a parse lent to OnData. NULL and POLL come from the control cache.
func (b *airBuf) Code() *bits.Vec {
	if t := b.p.Type(); t == packet.TypeNull || t == packet.TypePoll {
		return b.d.cachedCtl(b.p, b.uap, b.clk)
	}
	b.c.Assemble(&b.v, b.p, b.uap, b.clk)
	return &b.v
}

// takeAir returns an air buffer with an empty vector from the free
// list, or a new one.
func (d *Device) takeAir() *airBuf {
	if n := len(d.airFree); n > 0 {
		b := d.airFree[n-1]
		d.airFree = d.airFree[:n-1]
		b.v.Reset()
		return b
	}
	b := &airBuf{d: d}
	b.v.Reset()
	b.done = func() {
		d.txDone()
		bits.Poison(&b.v)
		b.c.Poison()
		d.airFree = append(d.airFree, b)
	}
	return b
}

// ctlKey identifies one assembled control-packet bit pattern: everything
// Assemble folds into the air bits of a payload-less packet. The LAP and
// UAP vary per piconet (a scatternet bridge transmits under several),
// the whitener seed is CLK6-1 (whitenSeed), and the header byte packs
// the remaining on-air header fields.
type ctlKey struct {
	lap  uint32
	uap  uint8
	seed uint8
	hdr  uint16 // AM_ADDR | type<<3 | flow<<7 | arqn<<8 | seqn<<9
}

// cachedCtl returns the air bits of a NULL/POLL packet, assembling on
// first use: the materialiser of the control packets that dominate idle
// piconet traffic, which assemble to one of a few bit patterns. Entries
// are immutable once stored: the vec rides the channel read-only (the
// Listener contract), exactly like the pre-assembled ID packets of the
// page/inquiry trains.
func (d *Device) cachedCtl(p *packet.Packet, uap uint8, clk uint32) *bits.Vec {
	h := p.Header
	key := ctlKey{
		lap:  p.AccessLAP,
		uap:  uap,
		seed: whitenSeed(clk),
		hdr:  uint16(h.AMAddr&7) | uint16(h.Type&0xF)<<3 | boolWord(h.Flow)<<7 | boolWord(h.ARQN)<<8 | boolWord(h.SEQN)<<9,
	}
	if v := d.ctlCache[key]; v != nil {
		return v
	}
	if d.ctlCache == nil {
		d.ctlCache = make(map[ctlKey]*bits.Vec)
	}
	v := p.Assemble(uap, clk)
	d.ctlCache[key] = v
	return v
}

// whitenSeed is CLK6-1, the only part of the clock the whitener (and so
// the air bits) depends on.
func whitenSeed(clk uint32) uint8 { return uint8(clk>>1) & 0x3F }

func boolWord(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

// cachedID is a pre-assembled, pre-boxed ID packet: the 68-bit access
// code of one LAP plus its boxed AirMeta annotation.
type cachedID struct {
	vec  *bits.Vec
	meta any // boxed AirMeta
}

// newCachedID assembles and boxes the ID packet of a LAP.
func newCachedID(lap uint32) *cachedID {
	return &cachedID{
		vec:  packet.NewID(lap).Assemble(0, 0),
		meta: AirMeta{Type: packet.TypeID, LAP: lap},
	}
}

// transmitID sends a pre-assembled, pre-boxed ID (see idOwn / idGIAC):
// the steady-state path of the inquiry and page trains, which skips
// packet assembly and metadata boxing entirely.
func (d *Device) transmitID(id *cachedID, freq int) {
	d.txOn(freq)
	d.radio.Transmit(freq, id.vec, id.meta, d.fnTxDone)
	d.Counters.TxPackets++
}

// txOn raises the TX meter and signal for a packet going out at freq.
func (d *Device) txOn(freq int) {
	d.txCount++
	d.TxMeter.Set(true)
	d.SigTxOn.Set(true)
	d.SigFreq.Set(int64(freq))
}

// txDone lowers the TX meter when the last nested transmission ends.
// The channel runs it at the packet's End, at the tail of the delivery
// event, so it costs no kernel event of its own. The cached ID and
// control vectors are never released.
func (d *Device) txDone() {
	d.txCount--
	if d.txCount == 0 {
		d.TxMeter.Set(false)
		d.SigTxOn.Set(false)
	}
}

// rxOffIfIdle closes the listen window unless a packet is mid-air — the
// shared close callback of every carrier-sense window.
func (d *Device) rxOffIfIdle() {
	if !d.rxBusy {
		d.rxOff()
	}
}

// RxStart implements channel.Listener: a packet began on our frequency.
func (d *Device) RxStart(tx *channel.Transmission) {
	d.rxBusy = true
	if d.onRxStart != nil {
		d.onRxStart(tx)
	}
}

// RxEnd implements channel.Listener: packet delivery (or collision).
func (d *Device) RxEnd(tx *channel.Transmission, rx *bits.Vec, collided bool) {
	d.rxBusy = false
	if collided {
		d.Counters.Collisions++
	}
	if d.onRx != nil {
		d.onRx(tx, rx, collided)
	} else {
		d.rxOff()
	}
	d.codec.Poison() // whatever the handler parsed is now released
}

// Detach resets the device to standby, dropping links, sync and any
// scheduled activity (the paper's enable_detach_reset).
func (d *Device) Detach() {
	d.setState(StateStandby)
	d.rxOffForce()
	d.isMaster = false
	d.links = [8]*Link{}
	d.nLinks = 0
	d.mlink = nil
	d.pgscan = pageScanState{}
	d.Clock.DropSync()
}

// parse decodes what tx delivered, with the device's correlator
// threshold, into the device's codec: the packet is valid until the
// next parse. Its payload is lent to OnData and copied for OnLMP and SCO
// sinks (handUp). On clean air (rx nil), a receiver armed with the
// sender's LAP, UAP and whitening clock takes the held packet as the
// decoder would rebuild it (Codec.Clean). Any other receiver
// materialises the bits and decodes them.
func (d *Device) parse(tx *channel.Transmission, rx *bits.Vec, lap uint32, uap uint8, clk uint32) (*packet.Packet, *packet.RxInfo, error) {
	if rx == nil {
		b, ok := tx.Frame.(*airBuf)
		if ok && b.p.AccessLAP == lap && b.uap == uap && whitenSeed(b.clk) == whitenSeed(clk) {
			p, info, err := d.codec.Clean(b.p, d.cfg.CorrelatorThreshold)
			d.checkClean(b, lap, uap, clk, p, info, err)
			return p, info, err
		}
		rx = tx.Materialize()
	}
	return d.codec.Parse(rx, lap, uap, clk, d.cfg.CorrelatorThreshold)
}

// handUp copies a parsed payload for a layer above the baseband that
// may keep it: the Link Manager and SCO sinks.
func handUp(payload []byte) []byte { return append([]byte(nil), payload...) }

// leadTicks converts the RX lead to kernel ticks.
func (d *Device) leadTicks() sim.Duration {
	return sim.Microseconds(rxLeadUS)
}

// nextCLKSlot returns the next master transmit-slot boundary — piconet
// clock CLK ≡ 0 (mod 4) — at or after t. Slaves carry a CLKN→CLK offset,
// so this must not be confused with the native-clock grid.
func (d *Device) nextCLKSlot(t sim.Time) sim.Time {
	off := d.Clock.Offset() & 3
	return d.Clock.NextTickTime(t, 4, (4-off)&3)
}

// nextCLKSlotAfterLead returns the next master slot whose lead-advanced
// listen window lies strictly in the future (so rescheduling from within
// an event can never chain at the same tick).
func (d *Device) nextCLKSlotAfterLead(from sim.Time) sim.Time {
	t := d.nextCLKSlot(from)
	for t <= d.now()+sim.Time(d.leadTicks()) {
		t = d.nextCLKSlot(t + 1)
	}
	return t
}

// SetAFH installs an adaptive channel map for connection-state hopping
// (nil restores the full 79-channel set). Both ends of a piconet must
// agree; lmp.Manager.SetAFH negotiates it over the air.
func (d *Device) SetAFH(m *hop.ChannelMap) { d.afhMap = m }

// AFHMap returns the current adaptive channel map (nil = full set).
func (d *Device) AFHMap() *hop.ChannelMap { return d.afhMap }

// Assessment returns a copy of the per-frequency reception tallies
// accumulated since the last ResetAssessment.
func (d *Device) Assessment() Assessment { return d.assess }

// ResetAssessment clears the per-frequency tallies, opening a fresh
// channel-classification window.
func (d *Device) ResetAssessment() { d.assess = Assessment{} }

// observeFreq books one connection-state reception outcome against the
// RF channel it arrived on.
func (d *Device) observeFreq(freq int, ok bool) {
	if freq < 0 || freq >= hop.NumChannels {
		return
	}
	if ok {
		d.assess[freq].OK++
	} else {
		d.assess[freq].Bad++
	}
}

// chanFreq computes a connection-state frequency through the adaptive
// channel map.
func (d *Device) chanFreq(sel *hop.Selector, clk uint32) int {
	return sel.BasicAFH(clk, d.afhMap)
}

// Now exposes the kernel clock to upper layers.
func (d *Device) Now() sim.Time { return d.k.Now() }

// After schedules fn on the device's kernel after a slot delay. Unlike
// internal events it is not invalidated by state transitions; upper
// layers (LMP, HCI, applications) use it for their own timers. The
// returned EventID lets those layers capture the pending arm in a
// checkpoint (see Kernel.EventInfo); callers that never snapshot may
// ignore it.
func (d *Device) After(slots uint64, fn func()) sim.EventID {
	return d.k.Schedule(sim.Slots(slots), fn)
}

// String identifies the device in logs.
func (d *Device) String() string {
	return fmt.Sprintf("%s[%s %s]", d.name, d.cfg.Addr, d.state)
}
