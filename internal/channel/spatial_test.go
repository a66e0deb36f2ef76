package channel

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/sim"
)

// spatialSetup builds a spatial channel with every fakeRx placed and
// tuned.
func spatialSetup(cfg SpatialConfig) (*sim.Kernel, *Channel) {
	k := sim.NewKernel()
	c := New(k, sim.NewRand(77), Config{})
	c.EnableSpatial(cfg)
	return k, c
}

func TestSpatialDeliveryDisc(t *testing.T) {
	k, c := spatialSetup(SpatialConfig{RangeM: 10, InterferenceM: 20})
	c.Place("master", Position{0, 0})
	near := &fakeRx{name: "near"}       // inside the delivery disc
	annulus := &fakeRx{name: "annulus"} // energy only: no delivery
	far := &fakeRx{name: "far"}         // silence
	c.Place("near", Position{6, 8})     // dist 10, on the disc edge
	c.Place("annulus", Position{0, 15}) // dist 15, in (10, 20]
	c.Place("far", Position{0, 25})     // dist 25, beyond interference
	for _, rx := range []*fakeRx{near, annulus, far} {
		c.Tune(rx, 10)
	}
	k.Schedule(0, func() { c.Transmit("master", 10, vec(50), nil) })
	k.Run()
	if len(near.got) != 1 {
		t.Fatalf("in-range receiver got %d packets, want 1", len(near.got))
	}
	if len(annulus.got)+len(annulus.started) != 0 {
		t.Fatal("annulus receiver decoded a packet")
	}
	if len(far.got)+len(far.started) != 0 {
		t.Fatal("out-of-range receiver heard the packet")
	}
	if got := c.Stats().Deliveries; got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
}

func TestSpatialReuseAndAnnulusCollision(t *testing.T) {
	// Two same-frequency transmitters: farther apart than
	// RangeM+InterferenceM the channel is spatially reused; inside that
	// separation they corrupt each other.
	for _, tc := range []struct {
		name     string
		sep      float64
		collided bool
	}{
		{"reuse", 31, false},   // > 10+20
		{"collide", 29, true},  // one's annulus reaches the other's disc
		{"adjacent", 15, true}, // deep overlap
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, c := spatialSetup(SpatialConfig{RangeM: 10, InterferenceM: 20})
			c.Place("txA", Position{0, 0})
			c.Place("txB", Position{tc.sep, 0})
			rxA := &fakeRx{name: "rxA"}
			rxB := &fakeRx{name: "rxB"}
			c.Place("rxA", Position{1, 0})
			c.Place("rxB", Position{tc.sep - 1, 0})
			c.Tune(rxA, 10)
			c.Tune(rxB, 10)
			k.Schedule(0, func() { c.Transmit("txA", 10, vec(50), nil) })
			k.Schedule(1, func() { c.Transmit("txB", 10, vec(50), nil) })
			k.Run()
			if tc.collided {
				if rxA.collided != 1 || rxB.collided != 1 {
					t.Fatalf("collisions rxA=%d rxB=%d, want 1 each", rxA.collided, rxB.collided)
				}
				if got := c.Stats().Collisions; got != 2 {
					t.Fatalf("stats.Collisions = %d, want 2", got)
				}
			} else {
				if len(rxA.got) != 1 || len(rxB.got) != 1 {
					t.Fatalf("deliveries rxA=%d rxB=%d, want 1 each (spatial reuse)", len(rxA.got), len(rxB.got))
				}
				if got := c.Stats().Collisions; got != 0 {
					t.Fatalf("stats.Collisions = %d, want 0", got)
				}
			}
		})
	}
}

func TestPlaceMovesListener(t *testing.T) {
	// Mobility: re-placing a tuned listener moves it immediately —
	// deliveries follow the new position.
	k, c := spatialSetup(SpatialConfig{RangeM: 10})
	c.Place("master", Position{0, 0})
	rx := &fakeRx{name: "rover"}
	c.Place("rover", Position{500, 500}) // far outside range
	c.Tune(rx, 10)
	k.Schedule(0, func() { c.Transmit("master", 10, vec(50), nil) })
	k.Schedule(100*sim.BitTicks, func() { c.Place("rover", Position{3, 4}) }) // dist 5: in range
	k.Schedule(101*sim.BitTicks, func() { c.Transmit("master", 10, vec(50), nil) })
	k.Schedule(300*sim.BitTicks, func() { c.Place("rover", Position{-300, 200}) })
	k.Schedule(301*sim.BitTicks, func() { c.Transmit("master", 10, vec(50), nil) })
	k.Run()
	if len(rx.got) != 1 {
		t.Fatalf("rover got %d packets, want exactly the one sent while in range", len(rx.got))
	}
	if got, ok := c.PositionOf("rover"); !ok || got != (Position{-300, 200}) {
		t.Fatalf("PositionOf(rover) = %v, %v", got, ok)
	}
}

// bruteEligible recomputes, by an O(n) scan over every registered
// receiver, the names of the listeners a transmission from `from` at
// `now` on `freq` must snapshot — the reference model for Transmit's
// receiver scan.
func bruteEligible(c *Channel, from string, freq int, now sim.Time) []string {
	sp := c.spatial
	pos := sp.pos[from]
	var states []*Radio
	for _, st := range c.receivers {
		if st.on && st.freq == freq && st.since <= now && st.busy == nil &&
			st.l.Name() != from && dist2(st.pos, pos) <= sp.rangeM2 {
			states = append(states, st)
		}
	}
	sortListeners(states)
	names := make([]string, len(states))
	for i, st := range states {
		names[i] = st.l.Name()
	}
	return names
}

func eligibleNames(tx *Transmission) []string {
	names := make([]string, len(tx.eligible))
	for i, st := range tx.eligible {
		names[i] = st.l.Name()
	}
	return names
}

func TestSpatialEligibleMatchesBruteForce(t *testing.T) {
	// Property test: on randomized placements, ranges, retunes and moves
	// the receiver snapshot must equal a naive O(n) distance scan, in the
	// same order (the determinism contract).
	rng := sim.NewRand(0xC0FFEE)
	for trial := 0; trial < 60; trial++ {
		rangeM := 1 + 40*rng.Float64()
		interferenceM := rangeM * (1 + rng.Float64())
		k := sim.NewKernel()
		c := New(k, sim.NewRand(rng.Uint64()), Config{})
		c.EnableSpatial(SpatialConfig{RangeM: rangeM, InterferenceM: interferenceM})

		world := 20 + 100*rng.Float64() // floor side, in meters
		n := 5 + rng.Intn(40)
		rxs := make([]*fakeRx, n)
		for i := range rxs {
			name := fmt.Sprintf("rx%02d", i)
			rxs[i] = &fakeRx{name: name}
			c.Place(name, Position{world * (rng.Float64() - 0.5), world * (rng.Float64() - 0.5)})
			c.Tune(rxs[i], rng.Intn(4)) // few frequencies: plenty of co-channel listeners
		}
		c.Place("tx", Position{world * (rng.Float64() - 0.5), world * (rng.Float64() - 0.5)})

		for shot := 0; shot < 8; shot++ {
			// Occasionally retune or move a listener between shots.
			if i := rng.Intn(n); rng.Bool(0.5) {
				c.Tune(rxs[i], rng.Intn(4))
			}
			if i := rng.Intn(n); rng.Bool(0.3) {
				c.Place(rxs[i].name, Position{world * (rng.Float64() - 0.5), world * (rng.Float64() - 0.5)})
			}
			freq := rng.Intn(4)
			want := bruteEligible(c, "tx", freq, k.Now())
			tx := c.Transmit("tx", freq, vec(20), nil)
			if got := eligibleNames(tx); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d shot %d (range %.1f): eligible set %v != brute force %v",
					trial, shot, rangeM, got, want)
			}
			k.Run() // drain the delivery events before the next shot
		}
	}
}

// logRx records delivery outcomes in order, for medium-equivalence
// comparison.
type logRx struct {
	name string
	log  []string
}

func (l *logRx) Name() string             { return l.name }
func (l *logRx) RxStart(tx *Transmission) { l.log = append(l.log, "start:"+tx.From) }
func (l *logRx) RxEnd(tx *Transmission, rx *bits.Vec, collided bool) {
	l.log = append(l.log, fmt.Sprintf("end:%s:%v", tx.From, collided))
}

// TestSpatialInfiniteRangeMatchesGlobal drives the global medium and a
// spatial medium with a range wider than the world through the same
// randomized Tune/Transmit schedule and demands identical delivery logs
// and channel stats — the channel-level reference-model equivalence.
func TestSpatialInfiniteRangeMatchesGlobal(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		type op struct {
			at    sim.Duration
			tune  int // receiver index, -1 for transmit
			freq  int
			nbits int
		}
		// One schedule, generated once per seed, replayed on both media.
		rng := sim.NewRand(seed * 999)
		const n = 12
		var ops []op
		for i := 0; i < 120; i++ {
			o := op{at: sim.Duration(rng.Intn(3000)), freq: rng.Intn(5), tune: -1, nbits: 10 + rng.Intn(80)}
			if rng.Bool(0.6) {
				o.tune = rng.Intn(n)
			}
			ops = append(ops, o)
		}
		run := func(spatial bool) ([][]string, Stats) {
			k := sim.NewKernel()
			c := New(k, sim.NewRand(seed), Config{BER: 0.01})
			if spatial {
				c.EnableSpatial(SpatialConfig{RangeM: 1e9})
				prng := sim.NewRand(seed * 7)
				c.Place("tx", Position{prng.Float64() * 100, prng.Float64() * 100})
				for i := 0; i < n; i++ {
					c.Place(fmt.Sprintf("rx%02d", i), Position{prng.Float64() * 100, prng.Float64() * 100})
				}
			}
			rxs := make([]*logRx, n)
			for i := range rxs {
				rxs[i] = &logRx{name: fmt.Sprintf("rx%02d", i)}
			}
			for _, o := range ops {
				o := o
				k.Schedule(o.at, func() {
					if o.tune >= 0 {
						c.Tune(rxs[o.tune], o.freq)
					} else {
						c.Transmit("tx", o.freq, vec(o.nbits), nil)
					}
				})
			}
			k.Run()
			logs := make([][]string, n)
			for i, rx := range rxs {
				logs[i] = rx.log
			}
			return logs, c.Stats()
		}
		glogs, gstats := run(false)
		slogs, sstats := run(true)
		if gstats != sstats {
			t.Fatalf("seed %d: stats diverge:\nglobal  %+v\nspatial %+v", seed, gstats, sstats)
		}
		if !reflect.DeepEqual(glogs, slogs) {
			t.Fatalf("seed %d: delivery logs diverge", seed)
		}
	}
}

func TestEnableSpatialGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	_, c := setup(0)
	c.Tune(&fakeRx{name: "early"}, 3)
	mustPanic("enable after tune", func() { c.EnableSpatial(SpatialConfig{RangeM: 10}) })

	_, c2 := setup(0)
	mustPanic("zero range", func() { c2.EnableSpatial(SpatialConfig{}) })
	mustPanic("NaN range", func() { c2.EnableSpatial(SpatialConfig{RangeM: math.NaN()}) })
	mustPanic("shrunk interference", func() { c2.EnableSpatial(SpatialConfig{RangeM: 10, InterferenceM: 5}) })
	c2.EnableSpatial(SpatialConfig{RangeM: 10})
	mustPanic("double enable", func() { c2.EnableSpatial(SpatialConfig{RangeM: 10}) })
	mustPanic("unplaced tune", func() { c2.Tune(&fakeRx{name: "ghost"}, 3) })
	c2.Place("solo", Position{0, 0})
	c2.Tune(&fakeRx{name: "solo"}, 3)
	mustPanic("duplicate name", func() { c2.Tune(&fakeRx{name: "solo"}, 4) })
	mustPanic("unplaced transmit", func() { c2.Transmit("ghost", 3, vec(10), nil) })
}
