package baseband

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestSteadyStateExchangeAllocs pins the air path's ownership rule on
// a connected link: once the pools are warm, a full-size DM1 or DH5
// exchange (master data, slave NULL, the ack) allocates nothing.
// Assembly, the air vector, parsing, the AirMeta box and the segment
// buffer are all reused, and the payload is lent to the slave's host
// for the duration of OnData.
func TestSteadyStateExchangeAllocs(t *testing.T) {
	for _, ty := range []packet.Type{packet.TypeDM1, packet.TypeDH5} {
		r := newRig(0)
		m := r.device("master", 0x111122, 0)
		s := r.device("slave", 0x222233, 5000)
		ml, _ := connectPair(t, r, m, s)
		ml.PacketType = ty
		delivered := 0
		s.OnData = func(_ *Link, payload []byte, _ uint8) { delivered += len(payload) }
		payload := make([]byte, ty.MaxPayload())
		exchange := func() {
			ml.Send(payload, packet.LLIDL2CAPStart)
			r.k.RunUntil(r.k.Now() + sim.Time(sim.Slots(uint64(2*ty.Slots()+4))))
		}
		// Warm the pools, the event queue and the NULL/POLL cache,
		// which fills once per whitening seed and header.
		for i := 0; i < 512; i++ {
			exchange()
		}
		before := delivered
		const runs = 50
		allocs := testing.AllocsPerRun(runs, exchange)
		if got := (delivered - before) / len(payload); got != runs+1 { // AllocsPerRun adds a warm-up call
			t.Fatalf("%v: %d payloads delivered in %d exchanges", ty, got, runs+1)
		}
		if ml.QueueLen() != 0 {
			t.Fatalf("%v: master queue not drained", ty)
		}
		if allocs != 0 {
			t.Errorf("%v: %v allocations per exchange, want 0", ty, allocs)
		}
	}
}
