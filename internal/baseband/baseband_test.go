package baseband

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/hop"
	"repro/internal/packet"
	"repro/internal/sim"
)

// rig is the shared test harness: kernel, channel and named devices.
type rig struct {
	k  *sim.Kernel
	ch *channel.Channel
}

func newRig(ber float64) *rig {
	k := sim.NewKernel()
	return &rig{k: k, ch: channel.New(k, sim.NewRand(0xC0FFEE), channel.Config{BER: ber})}
}

func (r *rig) device(name string, lap uint32, phase uint32) *Device {
	return New(r.k, r.ch, name, Config{
		Addr:       BDAddr{LAP: lap, UAP: uint8(lap >> 16), NAP: 0x1234},
		ClockPhase: phase,
		Seed:       uint64(lap)*977 + 13,
	})
}

func TestConfigNormalize(t *testing.T) {
	c := (&Config{}).Normalize()
	if c.CorrelatorThreshold != 7 || c.NInquiry != 64 || c.BackoffMaxSlots != 1023 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Seed == 0 {
		t.Fatal("seed must be derived")
	}
	c2 := (&Config{NInquiry: 256}).Normalize()
	if c2.NInquiry != 256 {
		t.Fatal("explicit value overwritten")
	}
}

func TestStrings(t *testing.T) {
	if StateInquiryScan.String() != "INQUIRY SCAN" || StateConnection.String() != "CONNECTION" {
		t.Fatal("State strings wrong")
	}
	if ModeSniff.String() != "SNIFF" || ModeHold.String() != "HOLD" {
		t.Fatal("Mode strings wrong")
	}
	a := BDAddr{LAP: 0xABCDEF, UAP: 0x12, NAP: 0x3456}
	if a.String() != "3456:12:ABCDEF" {
		t.Fatalf("BDAddr string = %s", a.String())
	}
	if State(99).String() == "" || Mode(99).String() == "" {
		t.Fatal("unknown enums must still print")
	}
}

func TestLinkSendChunks(t *testing.T) {
	l := &Link{PacketType: packet.TypeDM1} // max 17 bytes
	l.Send(make([]byte, 40), packet.LLIDL2CAPStart)
	if len(l.txq) != 3 {
		t.Fatalf("chunks = %d, want 3", len(l.txq))
	}
	if l.txq[0].llid != packet.LLIDL2CAPStart {
		t.Fatal("first chunk LLID wrong")
	}
	if l.txq[1].llid != packet.LLIDL2CAPContinue || l.txq[2].llid != packet.LLIDL2CAPContinue {
		t.Fatal("continuation LLID wrong")
	}
	if len(l.txq[0].data) != 17 || len(l.txq[2].data) != 6 {
		t.Fatal("chunk sizes wrong")
	}
	if l.QueueLen() != 3 {
		t.Fatal("QueueLen wrong")
	}
}

func TestLinkARQDedup(t *testing.T) {
	d := &Device{}
	l := &Link{dev: d}
	h := &packet.Header{SEQN: true}
	if !l.processRx(h, true) {
		t.Fatal("first payload must deliver")
	}
	if l.processRx(h, true) {
		t.Fatal("duplicate SEQN must be filtered")
	}
	if d.Counters.DupsFiltered != 1 {
		t.Fatal("dup counter wrong")
	}
	h2 := &packet.Header{SEQN: false}
	if !l.processRx(h2, true) {
		t.Fatal("toggled SEQN must deliver")
	}
}

func TestLinkAckClearsPending(t *testing.T) {
	l := &Link{dev: &Device{}, PacketType: packet.TypeDM1, Master: BDAddr{LAP: 1}}
	l.Send([]byte{1, 2, 3}, packet.LLIDL2CAPStart)
	p := l.nextPacket(true)
	if p.Header.Type != packet.TypeDM1 || l.pending == nil {
		t.Fatal("data packet not built")
	}
	l.processRx(&packet.Header{ARQN: true}, false)
	if l.pending != nil {
		t.Fatal("ACK did not clear pending")
	}
	p2 := l.nextPacket(true)
	if p2.Header.Type != packet.TypePoll {
		t.Fatalf("empty queue should POLL, got %v", p2.Header.Type)
	}
}

func TestLinkRetransmitOnNak(t *testing.T) {
	dev := &Device{}
	l := &Link{dev: dev, PacketType: packet.TypeDM1, Master: BDAddr{LAP: 1}}
	l.Send([]byte{9}, packet.LLIDL2CAPStart)
	first := l.nextPacket(true)
	l.processRx(&packet.Header{ARQN: false}, false) // NAK
	second := l.nextPacket(true)
	if second.Header.SEQN != first.Header.SEQN {
		t.Fatal("retransmission must keep SEQN")
	}
	if dev.Counters.Retransmits != 1 {
		t.Fatal("retransmit not counted")
	}
}

func TestSniffWindow(t *testing.T) {
	l := &Link{sniffT: 20, sniffAttempt: 2, sniffOffset: 0}
	// Period = 10 even slots; windows at indices 0,1, 10,11, ...
	for _, c := range []struct {
		idx  uint32
		want bool
	}{{0, true}, {1, true}, {2, false}, {9, false}, {10, true}, {11, true}, {12, false}} {
		if got := l.inSniffWindow(c.idx); got != c.want {
			t.Errorf("inSniffWindow(%d) = %v, want %v", c.idx, got, c.want)
		}
	}
}

// TestNextSniffAnchorMatchesScan holds the closed-form sniff anchor to
// the even-slot scan it replaced, for Fig 11's Tsniff values, attempts
// and offsets at both ends of their ranges, and clocks on both sides of
// the 28-bit wrap, where the even-slot count restarts mid-period.
func TestNextSniffAnchorMatchesScan(t *testing.T) {
	r := newRig(0)
	d := r.device("slave", 0x123456, 0)
	l := newLink(d, 1, BDAddr{LAP: 0x654321}, BDAddr{LAP: 0x654321})
	d.mlink = l
	scan := func(from sim.Time) sim.Time {
		t := d.nextCLKSlotAfterLead(from)
		for i := 0; ; i++ {
			if l.inSniffWindow(d.Clock.CLK(t) >> 2) {
				return t - sim.Time(d.leadTicks())
			}
			t += sim.Time(sim.Slots(2))
			if i > l.sniffT {
				panic("sniff window never opens")
			}
		}
	}
	for _, tsniff := range []int{20, 30, 40, 60, 80, 100} {
		wrapIn := uint32(4 * tsniff) // CLK ticks from the sweep's start to the wrap
		for _, clk0 := range []uint32{0, 3, 1<<28 - wrapIn, 1<<28 - wrapIn - 6, 1<<28 - 2} {
			d.Clock.SetOffset(clk0)
			for _, attempt := range []int{1, 2, tsniff / 2} {
				for _, offset := range []int{0, 1, tsniff/2 - 1} {
					l.sniffT, l.sniffAttempt, l.sniffOffset = tsniff, attempt, offset
					for s := uint64(0); s < 3*uint64(tsniff); s++ {
						from := sim.Time(sim.Slots(s)) + sim.Time(s%3)*sim.Time(sim.Microseconds(200))
						if got, want := d.nextSniffAnchor(from), scan(from); got != want {
							t.Fatalf("Tsniff %d attempt %d offset %d CLK0 %#x from %d: anchor %d, scan %d",
								tsniff, attempt, offset, clk0, from, got, want)
						}
					}
				}
			}
		}
	}
}

// connectPair builds a two-device piconet directly through page/page
// scan (no inquiry) with an exact clock estimate, and runs until
// connected. Returns master, slave and their links.
func connectPair(t testing.TB, r *rig, m, s *Device) (*Link, *Link) {
	t.Helper()
	var mLink, sLink *Link
	m.OnConnected = func(l *Link) { mLink = l }
	s.OnConnected = func(l *Link) { sLink = l }
	s.StartPageScan()
	est := m.EstimateOf(InquiryResult{CLKN: s.Clock.CLKN(r.k.Now()), At: r.k.Now()}, 0)
	m.StartPage(s.Addr(), est, 2048, func(l *Link, ok bool) {})
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(600)))
	if mLink == nil || sLink == nil {
		t.Fatalf("pair did not connect: master=%v slave=%v (m state %v, s state %v)",
			mLink != nil, sLink != nil, m.State(), s.State())
	}
	return mLink, sLink
}

func TestPageConnectsQuickly(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x111111, 0)
	s := r.device("slave", 0x222222, 12345)
	ml, sl := connectPair(t, r, m, s)
	if !m.IsMaster() || s.IsMaster() {
		t.Fatal("roles wrong")
	}
	if ml.AMAddr != sl.AMAddr || ml.AMAddr == 0 {
		t.Fatalf("AM_ADDR mismatch: %d vs %d", ml.AMAddr, sl.AMAddr)
	}
	if ml.Peer != s.Addr() || sl.Peer != m.Addr() {
		t.Fatal("peer addresses wrong")
	}
	// The paper: ~17 slots in absence of noise. Allow slack for phase.
	if got := m.PageSlots(); got > 64 {
		t.Fatalf("page took %d slots, want ~17", got)
	}
	// Clocks agree after FHS sync.
	now := r.k.Now()
	if m.Clock.CLK(now) != s.Clock.CLK(now) {
		t.Fatalf("piconet clocks disagree: %d vs %d", m.Clock.CLK(now), s.Clock.CLK(now))
	}
}

func TestInquiryDiscovers(t *testing.T) {
	r := newRig(0)
	inq := r.device("inquirer", 0x333333, 0)
	scn := r.device("scanner", 0x444444, 99999)
	scn.StartInquiryScan()
	var results []InquiryResult
	ok := false
	inq.StartInquiry(4096, 1, func(rs []InquiryResult, o bool) { results, ok = rs, o })
	r.k.RunUntil(sim.Time(sim.Slots(5000)))
	if !ok || len(results) != 1 {
		t.Fatalf("inquiry failed: ok=%v results=%d", ok, len(results))
	}
	if results[0].Addr != scn.Addr() {
		t.Fatalf("discovered %v, want %v", results[0].Addr, scn.Addr())
	}
	// The reported clock must be close to the scanner's true clock.
	trueCLKN := scn.Clock.CLKN(results[0].At)
	diff := int32(trueCLKN) - int32(results[0].CLKN)
	if diff < 0 {
		diff = -diff
	}
	if diff > 3 {
		t.Fatalf("FHS clock off by %d half-slots", diff)
	}
}

func TestFullPiconetCreation(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x515151, 0)
	s := r.device("slave", 0x626262, 777777)
	s.StartInquiryScan()
	connected := false
	m.StartInquiry(4096, 1, func(rs []InquiryResult, ok bool) {
		if !ok {
			t.Error("inquiry phase failed")
			return
		}
		s.StartPageScan()
		m.StartPage(rs[0].Addr, m.EstimateOf(rs[0], 0), 2048, func(l *Link, ok bool) {
			connected = ok
		})
	})
	r.k.RunUntil(sim.Time(sim.Slots(8000)))
	if !connected {
		t.Fatalf("piconet not created (m=%v s=%v)", m.State(), s.State())
	}
}

// airTap listens on one RF channel for the whole run and sums, per
// transmitter, the air bits of every packet it hears.
type airTap struct {
	name  string
	bits  map[string]int
	heard *int
}

func (a *airTap) Name() string { return a.name }
func (a *airTap) RxStart(tx *channel.Transmission) {
	a.bits[tx.From] += int(tx.Duration() / sim.BitTicks)
	*a.heard++
}
func (a *airTap) RxEnd(*channel.Transmission, *bits.Vec, bool) {}

// TestTxMeterMatchesAirTime pins the transmitter's end-of-air
// bookkeeping, which the channel runs at the tail of each packet's
// delivery event: over a creation run and a data transfer, each
// device's TX-meter on-time equals the air bits it put on the channel
// times BitTicks.
func TestTxMeterMatchesAirTime(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x515151, 0)
	s := r.device("slave", 0x626262, 777777)
	airBits, heard := map[string]int{}, 0
	for f := 0; f < hop.NumChannels; f++ {
		r.ch.Tune(&airTap{name: fmt.Sprintf("tap%02d", f), bits: airBits, heard: &heard}, f)
	}
	s.StartInquiryScan()
	var link *Link
	m.StartInquiry(4096, 1, func(rs []InquiryResult, ok bool) {
		if !ok {
			t.Error("inquiry phase failed")
			return
		}
		s.StartPageScan()
		m.StartPage(rs[0].Addr, m.EstimateOf(rs[0], 0), 2048, func(l *Link, ok bool) {
			if ok {
				link = l
				l.Send(make([]byte, 200), packet.LLIDL2CAPStart)
			}
		})
	})
	r.k.RunUntil(sim.Time(sim.Slots(8000)))
	for r.ch.InFlight() > 0 {
		r.k.Step()
	}
	if link == nil || link.QueueLen() != 0 {
		t.Fatal("piconet not created or data not delivered")
	}
	// A tap still locked onto one packet misses a second on its channel,
	// so the sums are complete only if the taps heard every packet.
	if heard != r.ch.Stats().Transmissions {
		t.Fatalf("taps heard %d of %d transmissions", heard, r.ch.Stats().Transmissions)
	}
	for _, d := range []*Device{m, s} {
		want := sim.Duration(airBits[d.Name()] * sim.BitTicks)
		if got := d.TxMeter.OnTime(); got != want || want == 0 || d.TxMeter.On() {
			t.Errorf("%s: TX on-time %d ticks (meter on %v), want %d = %d air bits",
				d.Name(), got, d.TxMeter.On(), want, airBits[d.Name()])
		}
	}
}

func TestDataMasterToSlave(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x111122, 0)
	s := r.device("slave", 0x222233, 5000)
	ml, _ := connectPair(t, r, m, s)
	var got []byte
	s.OnData = func(l *Link, payload []byte, llid uint8) { got = append(got, payload...) }
	msg := []byte("hello bluetooth world from the master device!")
	ml.Send(msg, packet.LLIDL2CAPStart)
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(400)))
	if string(got) != string(msg) {
		t.Fatalf("slave received %q, want %q", got, msg)
	}
	if ml.QueueLen() != 0 {
		t.Fatal("master queue not drained")
	}
}

func TestDataSlaveToMaster(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x111133, 0)
	s := r.device("slave", 0x222244, 600)
	_, sl := connectPair(t, r, m, s)
	var got []byte
	m.OnData = func(l *Link, payload []byte, llid uint8) { got = append(got, payload...) }
	msg := []byte("uplink data rides on the polling scheme")
	sl.Send(msg, packet.LLIDL2CAPStart)
	// The slave can only send when polled: within a few Tpoll periods.
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(600)))
	if string(got) != string(msg) {
		t.Fatalf("master received %q, want %q", got, msg)
	}
}

func TestDataSurvivesNoise(t *testing.T) {
	r := newRig(1.0 / 300)
	m := r.device("master", 0x414141, 0)
	s := r.device("slave", 0x525252, 31337)
	ml, _ := connectPair(t, r, m, s)
	received := 0
	s.OnData = func(l *Link, payload []byte, llid uint8) { received += len(payload) }
	const n = 30
	for i := 0; i < n; i++ {
		ml.Send([]byte{byte(i), byte(i + 1), byte(i + 2)}, packet.LLIDL2CAPStart)
	}
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(4000)))
	if received != 3*n {
		t.Fatalf("delivered %d bytes, want %d (ARQ must recover losses)", received, 3*n)
	}
}

func TestMultiSlavePiconet(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x121212, 0)
	slaves := []*Device{
		r.device("slave1", 0x232323, 1111),
		r.device("slave2", 0x343434, 2222),
		r.device("slave3", 0x454545, 3333),
	}
	connected := 0
	m.OnConnected = func(l *Link) {}
	// Page each slave in sequence (one page procedure at a time).
	var pageNext func(i int)
	pageNext = func(i int) {
		if i >= len(slaves) {
			return
		}
		s := slaves[i]
		s.OnConnected = func(l *Link) { connected++ }
		s.StartPageScan()
		est := m.EstimateOf(InquiryResult{CLKN: s.Clock.CLKN(r.k.Now()), At: r.k.Now()}, 0)
		m.StartPage(s.Addr(), est, 2048, func(l *Link, ok bool) {
			if !ok {
				t.Errorf("page of slave %d failed", i)
				return
			}
			pageNext(i + 1)
		})
	}
	pageNext(0)
	r.k.RunUntil(sim.Time(sim.Slots(4000)))
	if connected != 3 {
		t.Fatalf("connected %d slaves, want 3", connected)
	}
	if len(m.Links()) != 3 {
		t.Fatalf("master has %d links", len(m.Links()))
	}
	seen := map[uint8]bool{}
	for am := range m.Links() {
		if seen[am] || am == 0 {
			t.Fatal("AM_ADDR duplicated or zero")
		}
		seen[am] = true
	}
	// All slaves keep being polled: their lastHeard advances.
	before := r.k.Now()
	r.k.RunUntil(before + sim.Time(sim.Slots(300)))
	for am, l := range m.Links() {
		if l.lastHeardAt <= before-sim.Time(sim.Slots(100)) {
			t.Fatalf("slave %d not heard from recently", am)
		}
	}
}

func TestSniffReducesSlaveActivity(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x616161, 0)
	s := r.device("slave", 0x727272, 444)
	ml, sl := connectPair(t, r, m, s)

	// Measure active-mode RX+TX activity over a window.
	s.RxMeter.Reset()
	s.TxMeter.Reset()
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(2000)))
	activeAct := s.RxMeter.Activity() + s.TxMeter.Activity()

	// Enter sniff with Tsniff = 100 slots.
	ml.EnterSniff(100, 2, 0)
	sl.EnterSniff(100, 2, 0)
	s.RxMeter.Reset()
	s.TxMeter.Reset()
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(2000)))
	sniffAct := s.RxMeter.Activity() + s.TxMeter.Activity()

	if sniffAct >= activeAct {
		t.Fatalf("sniff activity %.4f >= active %.4f", sniffAct, activeAct)
	}
	// The slave must still be reachable: master polls at anchors.
	if sl.lastHeardAt == 0 {
		t.Fatal("sniffing slave never heard the master")
	}
}

func TestSniffTrafficStillDelivered(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x818181, 0)
	s := r.device("slave", 0x929292, 555)
	ml, sl := connectPair(t, r, m, s)
	ml.EnterSniff(40, 2, 0)
	sl.EnterSniff(40, 2, 0)
	got := 0
	s.OnData = func(l *Link, p []byte, llid uint8) { got += len(p) }
	ml.Send([]byte{1, 2, 3, 4, 5}, packet.LLIDL2CAPStart)
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(300)))
	if got != 5 {
		t.Fatalf("sniffed slave received %d bytes, want 5", got)
	}
}

func TestHoldDarkensRF(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0xA1A1A1, 0)
	s := r.device("slave", 0xB2B2B2, 666)
	ml, sl := connectPair(t, r, m, s)
	_ = ml

	ml.EnterHold(400)
	sl.EnterHold(400)
	// Let any in-flight exchange settle, then measure inside the hold.
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(10)))
	s.RxMeter.Reset()
	s.TxMeter.Reset()
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(350)))
	if a := s.RxMeter.Activity() + s.TxMeter.Activity(); a != 0 {
		t.Fatalf("RF active during hold: %.5f", a)
	}
	// After hold expiry the slave resynchronises and is heard again.
	holdEnd := r.k.Now() + sim.Time(sim.Slots(50))
	r.k.RunUntil(holdEnd + sim.Time(sim.Slots(200)))
	if sl.Mode() != ModeActive {
		t.Fatalf("slave mode after hold = %v, want ACTIVE", sl.Mode())
	}
	if ml.lastHeardAt < holdEnd {
		t.Fatal("master never heard the slave after hold")
	}
}

func TestRepeatingHoldCycles(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0xC1C1C1, 0)
	s := r.device("slave", 0xD2D2D2, 888)
	ml, sl := connectPair(t, r, m, s)
	ml.EnterHoldRepeating(200)
	sl.EnterHoldRepeating(200)
	s.RxMeter.Reset()
	s.TxMeter.Reset()
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(3000)))
	act := s.RxMeter.Activity() + s.TxMeter.Activity()
	// Roughly resync-window / hold-period; must be far below active mode
	// (~2.6%) but nonzero (resyncs happen).
	if act <= 0 {
		t.Fatal("repeating hold never resynced")
	}
	if act > 0.02 {
		t.Fatalf("repeating-hold activity %.4f too high", act)
	}
	if sl.Mode() != ModeHold {
		t.Fatalf("slave left repeating hold: %v", sl.Mode())
	}
}

func TestParkBeacons(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0xE1E1E1, 0)
	s := r.device("slave", 0xF2F2F2, 999)
	ml, sl := connectPair(t, r, m, s)
	ml.EnterPark(64)
	sl.EnterPark(64)
	s.RxMeter.Reset()
	s.TxMeter.Reset()
	before := r.k.Now()
	r.k.RunUntil(before + sim.Time(sim.Slots(2000)))
	act := s.RxMeter.Activity() + s.TxMeter.Activity()
	if act <= 0 || act > 0.01 {
		t.Fatalf("parked activity = %.5f, want small but nonzero", act)
	}
	if s.TxMeter.OnTime() != 0 {
		t.Fatal("parked slave must not transmit")
	}
	// Unpark and verify the slave is active again.
	ml.Unpark()
	sl.Unpark()
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(200)))
	if ml.lastHeardAt <= before {
		t.Fatal("unparked slave not heard")
	}
}

func TestDetachResets(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x101010, 0)
	s := r.device("slave", 0x202020, 123)
	connectPair(t, r, m, s)
	s.Detach()
	m.Detach()
	if m.State() != StateStandby || s.State() != StateStandby {
		t.Fatal("detach must return to standby")
	}
	if len(m.Links()) != 0 || s.MasterLink() != nil {
		t.Fatal("links must be dropped")
	}
	if s.Clock.Offset() != 0 {
		t.Fatal("slave clock offset must clear")
	}
}

func TestPageTimeoutFails(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x303030, 0)
	s := r.device("slave", 0x404040, 321)
	// Slave is NOT in page scan: the page must time out.
	est := m.EstimateOf(InquiryResult{CLKN: s.Clock.CLKN(0), At: 0}, 0)
	var called, ok bool
	m.StartPage(s.Addr(), est, 256, func(l *Link, o bool) { called, ok = true, o })
	r.k.RunUntil(sim.Time(sim.Slots(400)))
	if !called || ok {
		t.Fatalf("page should fail: called=%v ok=%v", called, ok)
	}
	if m.State() != StateStandby {
		t.Fatalf("master state after failed page = %v", m.State())
	}
}

func TestInquiryTimeoutFails(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x505050, 0)
	var called, ok bool
	m.StartInquiry(512, 1, func(rs []InquiryResult, o bool) { called, ok = true, o })
	r.k.RunUntil(sim.Time(sim.Slots(700)))
	if !called || ok {
		t.Fatalf("inquiry with nobody listening must fail: called=%v ok=%v", called, ok)
	}
}

func TestSlaveHeaderAbortOnOtherTraffic(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x606060, 0)
	s1 := r.device("slave1", 0x707070, 100)
	s2 := r.device("slave2", 0x808080, 200)
	ml1, _ := connectPair(t, r, m, s1)
	connectPair(t, r, m, s2)
	// Saturate slave1 with big packets; slave2 should abort each after
	// the header and stay cheap.
	ml1.PacketType = packet.TypeDH5
	for i := 0; i < 40; i++ {
		ml1.Send(make([]byte, 300), packet.LLIDL2CAPStart)
	}
	s2.RxMeter.Reset()
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(1500)))
	// Slave2's RX on-time must be far below slave1's (which receives the
	// full 5-slot packets).
	if s2.RxMeter.Activity() > 0.05 {
		t.Fatalf("slave2 activity %.4f: header abort not working", s2.RxMeter.Activity())
	}
}
