package channel

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/sim"
)

type fakeRx struct {
	name     string
	started  []*Transmission
	got      []*bits.Vec
	collided int
	onStart  func(tx *Transmission)
	onEnd    func(tx *Transmission)
}

func (f *fakeRx) Name() string { return f.name }
func (f *fakeRx) RxStart(tx *Transmission) {
	f.started = append(f.started, tx)
	if f.onStart != nil {
		f.onStart(tx)
	}
}
func (f *fakeRx) RxEnd(tx *Transmission, rx *bits.Vec, collided bool) {
	if f.onEnd != nil {
		f.onEnd(tx)
	}
	if collided {
		f.collided++
		return
	}
	f.got = append(f.got, rx)
}

func vec(n int) *bits.Vec {
	v := bits.NewVec(n)
	for i := 0; i < n; i++ {
		v.AppendBit(uint8(i) & 1)
	}
	return v
}

func setup(ber float64) (*sim.Kernel, *Channel) {
	k := sim.NewKernel()
	return k, New(k, sim.NewRand(77), Config{BER: ber})
}

func TestCleanDelivery(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "slave"}
	c.Tune(rx, 10)
	sent := vec(100)
	k.Schedule(5, func() { c.Transmit("master", 10, sent, nil) })
	k.Run()
	if len(rx.got) != 1 || !rx.got[0].Equal(sent) {
		t.Fatalf("delivery failed: %d packets", len(rx.got))
	}
	if len(rx.started) != 1 {
		t.Fatal("RxStart not signalled")
	}
	if k.Now() != 5+100*sim.BitTicks {
		t.Fatalf("delivery time %v", k.Now())
	}
	if c.Stats().Deliveries != 1 {
		t.Fatal("stats wrong")
	}
}

func TestWrongFrequencyNotHeard(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "slave"}
	c.Tune(rx, 11)
	k.Schedule(0, func() { c.Transmit("master", 10, vec(50), nil) })
	k.Run()
	if len(rx.got) != 0 || len(rx.started) != 0 {
		t.Fatal("received on wrong frequency")
	}
}

func TestLateTunerMissesPacket(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "slave"}
	k.Schedule(0, func() { c.Transmit("master", 10, vec(100), nil) })
	k.Schedule(10, func() { c.Tune(rx, 10) }) // mid-packet: missed sync word
	k.Run()
	if len(rx.got) != 0 {
		t.Fatal("late tuner must not receive")
	}
}

func TestRetuneMidPacketAbandons(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "slave"}
	c.Tune(rx, 10)
	k.Schedule(0, func() { c.Transmit("master", 10, vec(100), nil) })
	k.Schedule(50, func() { c.Tune(rx, 20) })
	k.Run()
	if len(rx.got) != 0 {
		t.Fatal("retuned receiver must abandon the packet")
	}
}

func TestRadioOffMidPacketAbandons(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "slave"}
	r := c.Radio(rx)
	r.Tune(10)
	k.Schedule(0, func() { c.Transmit("master", 10, vec(100), nil) })
	k.Schedule(50, func() { r.Off() })
	k.Run()
	if len(rx.got) != 0 {
		t.Fatal("a receiver switched off mid-packet must abandon the packet")
	}
}

func TestTransmitterDoesNotHearItself(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "master"}
	c.Tune(rx, 10)
	k.Schedule(0, func() { c.Transmit("master", 10, vec(40), nil) })
	k.Run()
	if len(rx.got) != 0 {
		t.Fatal("device heard its own transmission")
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "observer"}
	c.Tune(rx, 10)
	k.Schedule(0, func() { c.Transmit("a", 10, vec(200), nil) })
	k.Schedule(100, func() { c.Transmit("b", 10, vec(200), nil) })
	k.Run()
	if len(rx.got) != 0 {
		t.Fatalf("collided packets delivered clean: %d", len(rx.got))
	}
	// The receiver was locked onto packet a; it observes one garbled
	// reception (the collision), not two.
	if rx.collided != 1 {
		t.Fatalf("collided deliveries = %d, want 1", rx.collided)
	}
	if c.Stats().Collisions != 2 {
		t.Fatalf("collision count = %d (both transmissions corrupted)", c.Stats().Collisions)
	}
}

func TestNoCollisionAcrossFrequencies(t *testing.T) {
	k, c := setup(0)
	rx1 := &fakeRx{name: "r1"}
	rx2 := &fakeRx{name: "r2"}
	c.Tune(rx1, 10)
	c.Tune(rx2, 20)
	k.Schedule(0, func() { c.Transmit("a", 10, vec(200), nil) })
	k.Schedule(100, func() { c.Transmit("b", 20, vec(200), nil) })
	k.Run()
	if len(rx1.got) != 1 || len(rx2.got) != 1 {
		t.Fatal("FHSS must isolate different channels")
	}
}

func TestNoCollisionSequential(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 5)
	k.Schedule(0, func() { c.Transmit("a", 5, vec(50), nil) })
	// 50 bits end at tick 100; a transmission at the exact boundary does
	// not collide, but the receiver is still in turnaround and misses it.
	k.Schedule(100, func() { c.Transmit("b", 5, vec(50), nil) })
	k.Run()
	if rx.collided != 0 {
		t.Fatalf("boundary packets collided: %d", rx.collided)
	}
	if len(rx.got) != 1 {
		t.Fatalf("got %d packets, want 1 (a only; b lost to turnaround)", len(rx.got))
	}
}

func TestSequentialWithGapBothReceived(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 5)
	k.Schedule(0, func() { c.Transmit("a", 5, vec(50), nil) })
	k.Schedule(102, func() { c.Transmit("b", 5, vec(50), nil) })
	k.Run()
	if rx.collided != 0 || len(rx.got) != 2 {
		t.Fatalf("gapped packets: got %d, collided %d, want 2/0", len(rx.got), rx.collided)
	}
}

func TestDeliveryAtPacketEnd(t *testing.T) {
	k, c := setup(0)
	var startedAt, deliveredAt sim.Time
	rx := &fakeRx{name: "r"}
	rx.onStart = func(*Transmission) { startedAt = k.Now() }
	rx.onEnd = func(*Transmission) { deliveredAt = k.Now() }
	c.Tune(rx, 0)
	k.Schedule(3, func() { c.Transmit("a", 0, vec(10), nil) })
	k.Schedule(3, func() {})                               // keep the kernel busy in the start tick
	k.Schedule(sim.Duration(3+10*sim.BitTicks), func() {}) // and in the end tick
	k.Run()
	if len(rx.got) != 1 {
		t.Fatal("not delivered")
	}
	if startedAt != 3 {
		t.Fatalf("RxStart at %v, want 3 (the tick the first bit leaves)", startedAt)
	}
	if want := sim.Time(3 + 10*sim.BitTicks); deliveredAt != want {
		t.Fatalf("delivery at %v, want %v (the tick the last bit leaves)", deliveredAt, want)
	}
}

// TestTransmitEventBudget pins the medium's kernel cost per packet and
// where the transmitter's done callback runs. A packet nobody can hear
// costs one event (delivery at End); a heard one costs two (RxStart
// fan-out, then delivery). done runs exactly once, at End, after the
// last RxEnd and before any event those RxEnds schedule.
func TestTransmitEventBudget(t *testing.T) {
	const bitsLen = 40
	air := sim.Time(bitsLen * sim.BitTicks)
	for _, tc := range []struct {
		name    string
		tune    []int // frequencies of the listeners a..
		txAt    []sim.Time
		pending int // kernel events the first Transmit leaves behind
		want    []string
	}{
		{"unheard", []int{11, 12}, []sim.Time{0}, 1, []string{"done:m0"}},
		{"heard", []int{10, 10, 12}, []sim.Time{0}, 2,
			[]string{"end:a", "end:b", "done:m0", "ev:a", "ev:b"}},
		{"collided", []int{10}, []sim.Time{0, 5}, 2,
			[]string{"end:a", "done:m0", "ev:a", "done:m1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, c := setup(0)
			var log []string
			for i, f := range tc.tune {
				name := string(rune('a' + i))
				rx := &fakeRx{name: name}
				rx.onEnd = func(*Transmission) {
					log = append(log, "end:"+name)
					k.Schedule(0, func() { log = append(log, "ev:"+name) })
				}
				c.Radio(rx).Tune(f)
			}
			m := c.Radio(&fakeRx{name: "m"})
			for i, at := range tc.txAt {
				i, end := i, at+air
				done := func() {
					log = append(log, fmt.Sprintf("done:m%d", i))
					if k.Now() != end {
						t.Errorf("done for packet %d at %v, want End %v", i, k.Now(), end)
					}
				}
				k.At(at, func() {
					before := k.Pending()
					m.Transmit(10, vec(bitsLen), nil, done)
					if i == 0 {
						if n := k.Pending() - before; n != tc.pending {
							t.Errorf("Transmit left %d pending events, want %d", n, tc.pending)
						}
					}
				})
			}
			k.Run()
			if !reflect.DeepEqual(log, tc.want) {
				t.Fatalf("order %q, want %q", log, tc.want)
			}
		})
	}
	// The btbench-facing wrapper schedules the same events.
	k, c := setup(0)
	c.Transmit("x", 10, vec(bitsLen), nil)
	if n := k.Pending(); n != 1 {
		t.Fatalf("unheard Channel.Transmit left %d pending events, want 1", n)
	}
}

func TestBERFlipsExpectedFraction(t *testing.T) {
	k, c := setup(0.02)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 0)
	const bitsPerPkt, pkts = 1000, 200
	for i := 0; i < pkts; i++ {
		at := sim.Time(uint64(i) * 3000 * sim.BitTicks)
		k.At(at, func() { c.Transmit("a", 0, vec(bitsPerPkt), nil) })
	}
	k.Run()
	if len(rx.got) != pkts {
		t.Fatalf("deliveries = %d", len(rx.got))
	}
	flipped := c.Stats().FlippedBits
	want := 0.02 * bitsPerPkt * pkts
	if float64(flipped) < want*0.8 || float64(flipped) > want*1.2 {
		t.Fatalf("flipped %d bits, want about %.0f", flipped, want)
	}
}

func TestZeroBERNeverFlips(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 0)
	sent := vec(500)
	k.Schedule(0, func() { c.Transmit("a", 0, sent, nil) })
	k.Run()
	if !rx.got[0].Equal(sent) {
		t.Fatal("zero BER corrupted bits")
	}
	// A noiseless channel hands over the transmitted vector itself; the
	// per-receiver copy exists only to carry independent noise (receivers
	// treat rx as shared read-only, per the Listener contract).
	if rx.got[0] != sent {
		t.Fatal("noiseless delivery should not copy the transmitted bits")
	}
}

func TestMultipleListenersAllReceive(t *testing.T) {
	k, c := setup(0)
	rxs := []*fakeRx{{name: "b"}, {name: "a"}, {name: "c"}}
	for _, r := range rxs {
		c.Tune(r, 3)
	}
	k.Schedule(0, func() { c.Transmit("m", 3, vec(30), nil) })
	k.Run()
	for _, r := range rxs {
		if len(r.got) != 1 {
			t.Fatalf("%s missed the broadcast", r.name)
		}
	}
}

func TestTuneIdleIdempotentKeepsSince(t *testing.T) {
	k, c := setup(0)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 7)
	// An idle re-tune to the same frequency is a no-op: the receiver
	// never left the channel, so it stays eligible for a packet that
	// starts after the original Tune.
	k.Schedule(0, func() { c.Tune(rx, 7) })
	k.Schedule(5, func() { c.Transmit("m", 7, vec(100), nil) })
	k.Run()
	if len(rx.got) != 1 {
		t.Fatal("idle idempotent Tune dropped eligibility")
	}
	r := c.Radio(rx)
	if r.Freq() != 7 {
		t.Fatal("Freq() wrong")
	}
	r.Off()
	if r.Freq() != -1 {
		t.Fatal("Freq() after Off wrong")
	}
}

func TestRetuneSameFreqMidPacketAbandons(t *testing.T) {
	// Regression: Tune to the currently-busy frequency used to
	// early-return and keep the in-flight reception, so a retune meant
	// to open a fresh listen window silently rejoined the stale packet.
	// A mid-packet retune must abandon the reception whatever frequency
	// it targets, including the one already tuned.
	k, c := setup(0)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 7)
	k.Schedule(0, func() { c.Transmit("m", 7, vec(100), nil) })
	k.Schedule(50, func() { c.Tune(rx, 7) })
	k.Run()
	if len(rx.got) != 0 {
		t.Fatal("mid-packet same-frequency retune must abandon the packet")
	}
	if rx.collided != 0 {
		t.Fatal("abandoned packet must not be reported at all")
	}
}

func TestRetuneAwayAndBackMidPacketAbandons(t *testing.T) {
	// Bouncing away and back mid-packet must behave exactly like any
	// other retune: the abandoned packet stays abandoned, and the fresh
	// window makes the receiver eligible for the next packet only.
	k, c := setup(0)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 7)
	k.Schedule(0, func() { c.Transmit("m", 7, vec(100), nil) })
	k.Schedule(40, func() { c.Tune(rx, 8) })
	k.Schedule(60, func() { c.Tune(rx, 7) })
	// The first packet ends at tick 200; a second starts afterwards and
	// must be received through the re-opened window.
	k.Schedule(250, func() { c.Transmit("m", 7, vec(50), nil) })
	k.Run()
	if len(rx.got) != 1 {
		t.Fatalf("got %d packets, want 1 (first abandoned, second received)", len(rx.got))
	}
	if rx.got[0].Len() != 50 {
		t.Fatalf("received the abandoned packet (len %d)", rx.got[0].Len())
	}
}

func TestPerFreqStats(t *testing.T) {
	k, c := setup(0)
	c.AddJammer(20, 20, 1)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 10)
	k.Schedule(0, func() { c.Transmit("a", 10, vec(50), nil) })
	k.Schedule(10, func() { c.Transmit("b", 10, vec(50), nil) }) // collides with a
	k.Schedule(500, func() { c.Transmit("a", 20, vec(50), nil) })
	k.Schedule(1000, func() { c.Transmit("a", 30, vec(50), nil) })
	k.Run()
	st := c.Stats()
	if f := st.PerFreq[10]; f.Transmissions != 2 || f.Collisions != 2 || f.Deliveries != 0 {
		t.Fatalf("freq 10 stats wrong: %+v", f)
	}
	if f := st.PerFreq[20]; f.Transmissions != 1 || f.Jammed != 1 {
		t.Fatalf("freq 20 stats wrong: %+v", f)
	}
	if f := st.PerFreq[30]; f.Transmissions != 1 || f.Jammed != 0 {
		t.Fatalf("freq 30 stats wrong: %+v", f)
	}
	if st.Transmissions != 4 || st.Collisions != 2 || st.Jammed != 1 {
		t.Fatalf("aggregate stats wrong: %+v", st)
	}
}

func TestCollisionHookAttributesPairs(t *testing.T) {
	k, c := setup(0)
	var pairs [][2]string
	c.SetCollisionHook(func(existing, incoming *Transmission) {
		pairs = append(pairs, [2]string{existing.From, incoming.From})
	})
	k.Schedule(0, func() { c.Transmit("a", 10, vec(200), nil) })
	k.Schedule(50, func() { c.Transmit("b", 10, vec(200), nil) })
	k.Schedule(100, func() { c.Transmit("c", 10, vec(200), nil) })
	k.Run()
	// b overlaps a; c overlaps both a and b.
	want := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	if len(pairs) != len(want) {
		t.Fatalf("hook fired %d times, want %d: %v", len(pairs), len(want), pairs)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, pairs[i], want[i])
		}
	}
}

func TestPanics(t *testing.T) {
	k, c := setup(0)
	for name, fn := range map[string]func(){
		"bad freq":  func() { c.Tune(&fakeRx{name: "x"}, 79) },
		"empty tx":  func() { c.Transmit("a", 0, bits.NewVec(0), nil) },
		"bad BER 2": func() { New(k, sim.NewRand(1), Config{BER: -0.1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTransmissionAccessors(t *testing.T) {
	// Transmission nodes are recycled after delivery, so the accessors
	// must be read before the kernel runs past the packet's end.
	k, c := setup(0)
	k.Schedule(3, func() {
		tx := c.Transmit("m", 1, vec(10), "meta")
		if tx.Duration() != 10*sim.BitTicks {
			t.Errorf("duration = %v", tx.Duration())
		}
		if tx.Meta != "meta" || tx.From != "m" || tx.Freq != 1 {
			t.Error("metadata wrong")
		}
	})
	k.Run()
}

// onesRx reads every delivery and keeps nothing, as the Listener
// contract asks.
type onesRx struct {
	name string
	ones int
}

func (o *onesRx) Name() string          { return o.name }
func (o *onesRx) RxStart(*Transmission) {}
func (o *onesRx) RxEnd(_ *Transmission, rx *bits.Vec, collided bool) {
	if !collided {
		o.ones += rx.Ones()
	}
}

// TestNoisyCopiesRecycled pins the BER copies to the channel's free
// list: once warm, a noisy packet delivered to two receivers allocates
// nothing, and every copy still carries its own noise.
func TestNoisyCopiesRecycled(t *testing.T) {
	k, c := setup(0.02)
	a, b := &onesRx{name: "a"}, &onesRx{name: "b"}
	c.Tune(a, 0)
	c.Tune(b, 0)
	sent := vec(500)
	send := func() {
		c.Transmit("tx", 0, sent, nil)
		k.Run()
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("%v allocations per noisy packet, want 0", allocs)
	}
	if c.Stats().FlippedBits == 0 || a.ones == b.ones {
		t.Errorf("copies share their noise: flipped %d, ones %d and %d", c.Stats().FlippedBits, a.ones, b.ones)
	}
}
