package channel

import (
	"testing"

	"repro/internal/bits"
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
