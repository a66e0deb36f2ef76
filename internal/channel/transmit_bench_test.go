package channel

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/hop"
)

// The medium's per-packet price on the global ether, kernel events
// included: one 68-bit ID packet (an inquiry or page train step) with a
// single other radio tuned. Unheard is the common case of a train, where
// the scanner sits on a different frequency; Heard delivers to it.
// events/tx is the number of kernel events one Transmit schedules.

func benchTransmit(b *testing.B, rxFreq int) {
	k, c := setup(0)
	c.Tune(nopRx("scanner"), rxFreq)
	v := vec(68)
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transmit("master", 0, v, nil)
		events += k.Pending()
		k.Run()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/tx")
}

// nopRx is a Listener that keeps nothing, so the benchmark prices the
// medium alone.
type nopRx string

func (n nopRx) Name() string                       { return string(n) }
func (nopRx) RxStart(*Transmission)                {}
func (nopRx) RxEnd(*Transmission, *bits.Vec, bool) {}

func BenchmarkTransmitUnheard(b *testing.B) { benchTransmit(b, 1) }
func BenchmarkTransmitHeard(b *testing.B)   { benchTransmit(b, 0) }

// BenchmarkTransmitSpread is the office medium's shape: 32 radios tuned
// across the 79 frequencies, one ID packet per frequency in turn, so
// about two packets in five find a listener. The price of the receiver
// scan shows here: per packet it visits the radios on the packet's
// frequency, not every registered one.
func BenchmarkTransmitSpread(b *testing.B) {
	k, c := setup(0)
	for i := 0; i < 32; i++ {
		c.Radio(nopRx(fmt.Sprintf("rx%02d", i))).Tune(i * hop.NumChannels / 32)
	}
	tx := c.Radio(nopRx("master"))
	v := vec(68)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Transmit(i%hop.NumChannels, v, nil, nil)
		k.Run()
	}
}

// BenchmarkRadioRetune prices the receiver's own upkeep: a hop to the
// next frequency and back off, the inquiry and page scanners' per-slot
// pattern, with 32 other radios on the air.
func BenchmarkRadioRetune(b *testing.B) {
	_, c := setup(0)
	for i := 0; i < 32; i++ {
		c.Radio(nopRx(fmt.Sprintf("rx%02d", i))).Tune(i * hop.NumChannels / 32)
	}
	r := c.Radio(nopRx("scanner"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Tune(i % hop.NumChannels)
		r.Off()
	}
}
