package channel

import (
	"testing"

	"repro/internal/sim"
)

// TestInFlightCountsUntilDeliveryEnd pins the count Snapshot's quiescence
// probe relies on: a transmission is in flight from Transmit until its
// delivery event at End has run, whether it is heard cleanly, collides,
// or reaches no receiver at all.
func TestInFlightCountsUntilDeliveryEnd(t *testing.T) {
	air := sim.Time(200 * sim.BitTicks) // a 200-bit packet's time on the air
	type probe struct {
		at   sim.Time
		want int
	}
	cases := []struct {
		name   string
		tuneTo int // -1: no receiver tuned
		txAt   []sim.Time
		probes []probe
		// What the observer sees once the kernel drains: RxStart calls,
		// clean receptions and collided receptions.
		started, got, collided int
	}{
		{"clean", 10, []sim.Time{0}, []probe{
			{1, 1}, {air - 1, 1}, {air, 1}, {air + 1, 0},
		}, 1, 1, 0},
		{"collided", 10, []sim.Time{0, 100}, []probe{
			{50, 1}, {101, 2}, {air + 1, 1},
			{100 + air - 1, 1}, {100 + air + 1, 0},
		}, 1, 0, 1},
		{"no_receiver", -1, []sim.Time{0}, []probe{
			{1, 1}, {air - 1, 1}, {air + 1, 0},
		}, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, c := setup(0)
			rx := &fakeRx{name: "observer"}
			if tc.tuneTo >= 0 {
				c.Tune(rx, tc.tuneTo)
			}
			if n := c.InFlight(); n != 0 {
				t.Fatalf("fresh channel InFlight = %d, want 0", n)
			}
			for i, at := range tc.txAt {
				from := string(rune('a' + i))
				k.Schedule(sim.Duration(at), func() {
					before := c.InFlight()
					c.Transmit(from, 10, vec(200), nil)
					if n := c.InFlight(); n != before+1 {
						t.Errorf("InFlight after Transmit by %s = %d, want %d", from, n, before+1)
					}
				})
			}
			for _, p := range tc.probes {
				k.Schedule(sim.Duration(p.at), func() {
					if n := c.InFlight(); n != p.want {
						t.Errorf("InFlight at %v = %d, want %d", p.at, n, p.want)
					}
				})
			}
			k.Run()
			if n := c.InFlight(); n != 0 {
				t.Fatalf("drained channel InFlight = %d, want 0", n)
			}
			if len(rx.started) != tc.started || len(rx.got) != tc.got || rx.collided != tc.collided {
				t.Fatalf("observer saw %d starts, %d clean, %d collided; want %d, %d, %d",
					len(rx.started), len(rx.got), rx.collided, tc.started, tc.got, tc.collided)
			}
		})
	}
}
