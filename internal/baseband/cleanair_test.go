package baseband

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/packet"
	"repro/internal/sim"
)

// rxOutcome is what one reception left behind: the parse result and
// the device's error count.
type rxOutcome struct {
	err      error
	info     packet.RxInfo
	hdr      packet.Header
	payload  string
	rxErrors int
}

// TestCleanAirFallbackOnMismatch: on a noiseless channel, a receiver
// armed with a LAP, UAP or clock other than the sender's, on a
// frequency where a matching receiver takes the clean-air shortcut,
// gets exactly what it got when every transmission carried its bits:
// the same error, sync errors, packet and RxErrors count. Only the
// mismatched receivers materialise the packet, once however many read
// it; a clock that differs outside the whitening seed CLK6-1 still
// takes the shortcut.
func TestCleanAirFallbackOnMismatch(t *testing.T) {
	const lap, uap, clk = 0x515151, 0x51, 0x2A4
	sent := &packet.Packet{
		AccessLAP: lap,
		Header:    &packet.Header{AMAddr: 1, Type: packet.TypeDM1, SEQN: true},
		Payload:   []byte("clean air"),
		LLID:      packet.LLIDL2CAPStart,
	}
	type armed struct {
		lap uint32
		uap uint8
		clk uint32
	}
	cases := []struct {
		name         string
		rx           []armed
		materialized int
	}{
		{"match", []armed{{lap, uap, clk}, {lap, uap, clk ^ 0x80}}, 0},
		{"lap", []armed{{lap, uap, clk}, {0x626262, uap, clk}}, 1},
		{"uap", []armed{{lap, uap, clk}, {lap, uap ^ 1, clk}}, 1},
		{"clock", []armed{{lap, uap, clk}, {lap, uap, clk ^ 2}}, 1},
		{"all", []armed{{lap ^ 4, uap, clk}, {lap, uap ^ 1, clk}, {lap, uap, clk ^ 0x7E}}, 1},
	}
	// run sends the packet once from a transmitter to receivers armed as
	// given, as a frame (eager false) or as assembled bits.
	run := func(rxs []armed, eager bool) ([]rxOutcome, channel.Stats) {
		r := newRig(0)
		tx := r.device("tx", 0x111111, 0)
		got := make([]rxOutcome, len(rxs))
		for i, a := range rxs {
			d := r.device(fmt.Sprintf("rx%d", i), 0x200000+uint32(i), 0)
			d.onRx = func(txn *channel.Transmission, rx *bits.Vec, collided bool) {
				p, info, err := d.parse(txn, rx, a.lap, a.uap, a.clk)
				o := &got[i]
				o.err, o.info = err, *info
				if err != nil {
					d.Counters.RxErrors++
				} else {
					o.hdr, o.payload = *p.Header, string(p.Payload)
				}
				o.rxErrors = d.Counters.RxErrors
			}
			d.rxOn(7)
		}
		r.k.RunUntil(1)
		if eager {
			tx.txOn(7)
			tx.radio.Transmit(7, sent.Assemble(uap, clk), AirMeta{Type: packet.TypeDM1}, tx.fnTxDone)
		} else {
			tx.transmit(sent, nil, uap, clk, 7)
		}
		r.k.Run()
		return got, r.ch.Stats()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazy, st := run(tc.rx, false)
			eager, _ := run(tc.rx, true)
			for i := range tc.rx {
				if lazy[i] != eager[i] {
					t.Errorf("receiver %d armed %+v: frame %+v, bits %+v", i, tc.rx[i], lazy[i], eager[i])
				}
			}
			if st.Deliveries != len(tc.rx) || st.CleanDeliveries != len(tc.rx) || st.Materialized != tc.materialized {
				t.Errorf("deliveries %d, clean %d, materialized %d; want %d, %d, %d",
					st.Deliveries, st.CleanDeliveries, st.Materialized, len(tc.rx), len(tc.rx), tc.materialized)
			}
			if lazy[0].err != nil && tc.name != "all" {
				t.Errorf("the matching receiver failed: %v", lazy[0].err)
			}
		})
	}
}

// TestCleanAirStats pins the fast path by count: once warm, a DM1 or
// DH5 exchange on a single piconet at BER 0 hands every delivery over
// clean and assembles nothing, while at BER 1/100 the channel
// materialises exactly once per delivered transmission to draw its
// noise.
func TestCleanAirStats(t *testing.T) {
	for _, ber := range []float64{0, 0.01} {
		for _, ty := range []packet.Type{packet.TypeDM1, packet.TypeDH5} {
			r := newRig(ber)
			m := r.device("master", 0x111122, 0)
			s := r.device("slave", 0x222233, 5000)
			ml, _ := connectPair(t, r, m, s)
			ml.PacketType = ty
			payload := make([]byte, ty.MaxPayload())
			exchange := func() {
				if ml.QueueLen() == 0 {
					ml.Send(payload, packet.LLIDL2CAPStart)
				}
				r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(uint64(2*ty.Slots()+4))))
			}
			for i := 0; i < 64; i++ {
				exchange()
			}
			before := r.ch.Stats()
			for i := 0; i < 200; i++ {
				exchange()
			}
			st := r.ch.Stats()
			deliv := st.Deliveries - before.Deliveries
			clean := st.CleanDeliveries - before.CleanDeliveries
			mat := st.Materialized - before.Materialized
			if deliv == 0 {
				t.Fatalf("BER %v %v: nothing delivered", ber, ty)
			}
			want := [2]int{deliv, 0} // clean, materialized
			if ber > 0 {
				want = [2]int{0, deliv} // one receiver per transmission
			}
			if got := [2]int{clean, mat}; got != want {
				t.Errorf("BER %v %v: %d deliveries, %d clean, %d materialized; want clean %d, materialized %d",
					ber, ty, deliv, clean, mat, want[0], want[1])
			}
		}
	}
}

// BenchmarkExchange prices one exchange window of a saturated link (the
// master's data packet, the slave's reply, the turnaround slots) at
// each end of the air path: BER 0, where no bit is coded, and BER
// 1/100, where every delivered packet is assembled, corrupted and
// decoded.
func BenchmarkExchange(b *testing.B) {
	for _, ty := range []packet.Type{packet.TypeDM1, packet.TypeDH5} {
		for _, ber := range []struct {
			name string
			ber  float64
		}{{"ber0", 0}, {"ber100", 0.01}} {
			b.Run(fmt.Sprintf("%v/%s", ty, ber.name), func(b *testing.B) {
				r := newRig(ber.ber)
				m := r.device("master", 0x111122, 0)
				s := r.device("slave", 0x222233, 5000)
				ml, _ := connectPair(b, r, m, s)
				ml.PacketType = ty
				// At BER 1/100 no DH5 passes its CRC, so the slave hears
				// nothing valid; keep supervision from dropping the link.
				m.cfg.SupervisionTimeoutSlots, s.cfg.SupervisionTimeoutSlots = 1<<30, 1<<30
				payload := make([]byte, ty.MaxPayload())
				window := sim.Time(sim.Slots(uint64(2*ty.Slots() + 4)))
				exchange := func() {
					if ml.QueueLen() == 0 {
						ml.Send(payload, packet.LLIDL2CAPStart)
					}
					r.k.RunUntil(r.k.Now() + window)
				}
				for i := 0; i < 64; i++ {
					exchange()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					exchange()
				}
				if s.MasterLink() == nil {
					b.Fatal("the link dropped")
				}
			})
		}
	}
}
