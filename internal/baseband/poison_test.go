//go:build poison

package baseband

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestOnDataPayloadPoisonedAfterReturn: OnData lends the payload, which
// is the device's parse buffer. Built with -tags poison, the device
// poisons that buffer as soon as the handler returns, so a consumer
// that keeps the slice instead of copying it reads the inverted bytes
// rather than its packet by luck.
func TestOnDataPayloadPoisonedAfterReturn(t *testing.T) {
	r := newRig(0)
	m := r.device("master", 0x111122, 0)
	s := r.device("slave", 0x222233, 5000)
	ml, _ := connectPair(t, r, m, s)
	var kept, copied []byte
	s.OnData = func(_ *Link, payload []byte, _ uint8) {
		kept = payload
		copied = append([]byte(nil), payload...)
	}
	ml.Send([]byte("lent, not given"), packet.LLIDL2CAPStart)
	r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(8)))
	if string(copied) != "lent, not given" {
		t.Fatalf("delivered %q", copied)
	}
	for i := range copied {
		if kept[i] != ^copied[i] {
			t.Fatalf("kept payload byte %d reads %#x after OnData returned, want the poison %#x", i, kept[i], ^copied[i])
		}
	}
}
