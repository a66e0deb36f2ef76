package channel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// byFreqViolation describes the first radio whose place in the
// per-frequency lists disagrees with its receiver state, or returns "":
// every registered radio is listed exactly once, on or off, in the list
// of the frequency it last tuned to, at the index it records.
func (c *Channel) byFreqViolation() string {
	listed := 0
	for f, ls := range c.byFreq {
		for i, seq := range ls {
			if r := c.receivers[seq]; r.freq != f || r.idx != i {
				return fmt.Sprintf("%s listed on %d at %d: freq %d, idx %d", r.name, f, i, r.freq, r.idx)
			}
		}
		listed += len(ls)
	}
	if listed != len(c.receivers) {
		return fmt.Sprintf("%d radios registered, %d listed", len(c.receivers), listed)
	}
	return ""
}

// TestFreqListsMatchBruteForce: after random Tune, Off, Place and
// Transmit sequences on both media, the eligible set a transmission
// snapshots from its frequency's list equals a brute-force scan of
// every registered receiver, in the same (name, seq) order.
func TestFreqListsMatchBruteForce(t *testing.T) {
	for _, spatial := range []bool{false, true} {
		heard := 0
		for seed := uint64(1); seed <= 20; seed++ {
			rng := sim.NewRand(seed)
			k := sim.NewKernel()
			c := New(k, sim.NewRand(seed), Config{})
			if spatial {
				c.EnableSpatial(SpatialConfig{RangeM: 15, InterferenceM: 25})
			}
			const n, freqs = 24, 6
			place := func(name string) {
				if spatial {
					c.Place(name, Position{60 * rng.Float64(), 60 * rng.Float64()})
				}
			}
			radios := make([]*Radio, n)
			for i := range radios {
				name := fmt.Sprintf("r%02d", i)
				place(name)
				radios[i] = c.Radio(&fakeRx{name: name})
			}
			for op := 0; op < 400; op++ {
				r := radios[rng.Intn(n)]
				switch x := rng.Intn(10); {
				case x < 4:
					r.Tune(rng.Intn(freqs))
				case x < 5:
					r.Off()
				case x < 6:
					place(r.name)
				case x < 8:
					k.RunUntil(k.Now() + sim.Time(rng.Intn(120)))
				default: // also from radios that never tuned
					freq, now := rng.Intn(freqs), k.Now()
					pos := r.pos
					if spatial {
						pos = c.spatial.pos[r.name]
					}
					var want []*Radio
					for _, o := range c.receivers {
						if o.on && o.freq == freq && o.since <= now && o.busy == nil && o != r &&
							(!spatial || dist2(o.pos, pos) <= c.spatial.rangeM2) {
							want = append(want, o)
						}
					}
					sortListeners(want)
					if tx := r.Transmit(freq, vec(10+rng.Intn(90)), nil, nil); !slices.Equal(tx.eligible, want) {
						t.Fatalf("spatial %v seed %d op %d: eligible %v, brute force %v",
							spatial, seed, op, radioNames(tx.eligible), radioNames(want))
					}
					heard += len(want)
				}
				if v := c.byFreqViolation(); v != "" {
					t.Fatalf("spatial %v seed %d op %d: %s", spatial, seed, op, v)
				}
			}
			k.Run()
		}
		if heard == 0 {
			t.Fatalf("spatial %v: no transmission had a receiver", spatial)
		}
	}
}

func radioNames(rs []*Radio) []string {
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.name
	}
	return names
}
