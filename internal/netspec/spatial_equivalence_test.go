package netspec

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The reference-model equivalence suite: a spatial medium whose range
// exceeds any distance on the floor must be observationally identical
// to the paper's global shared ether — same Metrics, same channel
// stats, on the same seed. This is what makes the medium refactor
// safe: any reachability, ordering or RNG-discipline bug in the
// spatial path shows up as a diff against the reference model.

// wideOpenPlacement returns a placement whose delivery disc covers any
// legal floor — "infinite range".
func wideOpenPlacement(kind PlacementKind) *Placement {
	return &Placement{Kind: kind, RangeM: MaxRangeM, SpacingM: 10}
}

// buildAndRun builds the spec on a fresh simulation, starts traffic,
// runs a measurement window and returns the world's full observable
// surface.
func buildAndRun(t *testing.T, seed uint64, ber float64, spec Spec, slots uint64) (Metrics, string) {
	t.Helper()
	s := core.NewSimulation(core.Options{Seed: seed, BER: ber})
	w, err := Build(s, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Start()
	w.ResetMetrics()
	s.RunSlots(slots)
	return w.Metrics(), fmt.Sprintf("%+v", s.Ch.Stats())
}

// equivalenceSpecs is a randomized family of worlds covering the
// machinery the medium touches: multi-piconet interference, voice
// reservations, poisson bursts, jammers, sniff, scatternet relay
// flows. Each spec carries the BER it can stand: the bridged world
// runs noise-free because its LMP presence negotiation is not robust
// to heavy noise on any medium — the comparison is between media, not
// a noise stress test.
type eqCase struct {
	spec Spec
	ber  float64
}

func equivalenceSpecs(seed uint64) []eqCase {
	rng := sim.NewRand(seed)
	piconets := 2 + rng.Intn(3)
	slaves := 1 + rng.Intn(3)
	cases := []eqCase{
		{ber: 1.0 / 80, spec: Spec{ // interfering bulk piconets, a jammer, one sniffed slave
			Piconets: slices.Repeat([]Piconet{{Slaves: slaves, TpollSlots: TpollNever}}, piconets),
			Traffic:  []Traffic{{Kind: TrafficBulk, Piconet: AllPiconets}},
			Jammers:  []Jammer{{Lo: 0, Hi: 15, Duty: 0.5}},
		}},
		{ber: 1.0 / 80, spec: Spec{ // voice beside poisson data
			Piconets: []Piconet{{Slaves: 2}, {Slaves: 1 + rng.Intn(2)}},
			Traffic: []Traffic{
				{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3, Slave: 1},
				{Kind: TrafficPoisson, Piconet: 1, MeanGapSlots: 40},
			},
		}},
		{ber: 0, spec: Spec{ // scatternet chain with an end-to-end flow
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}, {Slaves: 1}},
			Bridges:  ChainBridges(3, Bridge{}),
			Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(2, 1)}},
		}},
	}
	cases[0].spec.Modes = []PowerMode{{Kind: SniffMode, Piconet: 0, Slave: 1}}
	return cases
}

func TestSpatialInfiniteRangeMatchesGlobalMedium(t *testing.T) {
	kinds := []PlacementKind{PlaceGrid, PlaceRooms, PlaceDisc}
	for seed := uint64(1); seed <= 3; seed++ {
		for si, tc := range equivalenceSpecs(seed) {
			spec := tc.spec
			ber := tc.ber
			kind := kinds[(int(seed)+si)%len(kinds)]
			t.Run(fmt.Sprintf("seed%d/spec%d/%v", seed, si, kind), func(t *testing.T) {
				globalM, globalStats := buildAndRun(t, seed*101, ber, spec, 4000)
				spec.Placement = wideOpenPlacement(kind)
				spatialM, spatialStats := buildAndRun(t, seed*101, ber, spec, 4000)
				if globalStats != spatialStats {
					t.Errorf("channel stats diverge:\nglobal  %s\nspatial %s", globalStats, spatialStats)
				}
				if !reflect.DeepEqual(globalM, spatialM) {
					t.Errorf("metrics diverge:\nglobal  %+v\nspatial %+v", globalM, spatialM)
				}
			})
		}
	}
}

// TestPlacementDoesNotPerturbBaseWorld pins the RNG discipline behind
// the equivalence: computing a layout must not advance the root stream,
// so device seeds and clock phases match a placement-free build.
func TestPlacementDoesNotPerturbBaseWorld(t *testing.T) {
	build := func(pl *Placement) string {
		s := core.NewSimulation(core.Options{Seed: 42})
		w := MustBuild(s, Spec{
			Piconets:  slices.Repeat([]Piconet{{Slaves: 2, TpollSlots: TpollNever}}, 2),
			Traffic:   []Traffic{{Kind: TrafficBulk, Piconet: AllPiconets}},
			Placement: pl,
		})
		w.Start()
		w.ResetMetrics()
		s.RunSlots(2000)
		return fmt.Sprintf("%+v %+v", w.Metrics(), s.Ch.Stats())
	}
	base := build(nil)
	wide := build(wideOpenPlacement(PlaceDisc))
	if base != wide {
		t.Fatalf("layout drew from the root RNG stream:\nbase %s\nwide %s", base, wide)
	}
}

// TestSpatialSeparationDropsInterference is the converse sanity check:
// with a realistic range, well-separated piconets stop colliding with
// each other while traffic keeps flowing — the spatial reuse that
// motivates the whole model.
func TestSpatialSeparationDropsInterference(t *testing.T) {
	run := func(pl *Placement) Metrics {
		s := core.NewSimulation(core.Options{Seed: 7})
		w := MustBuild(s, Spec{
			Piconets:  slices.Repeat([]Piconet{{Slaves: 1, TpollSlots: TpollNever}}, 4),
			Traffic:   []Traffic{{Kind: TrafficBulk, Piconet: AllPiconets}},
			Placement: pl,
		})
		w.Start()
		w.ResetMetrics()
		s.RunSlots(6000)
		return w.Metrics()
	}
	// 60 m pitch with a 10 m range: every piconet is out of everyone
	// else's interference reach.
	apart := run(&Placement{Kind: PlaceGrid, RangeM: 10, SpacingM: 60})
	if apart.Inter != 0 {
		t.Fatalf("separated grid still sees %d inter-piconet collision pairs", apart.Inter)
	}
	if apart.Bytes == 0 {
		t.Fatal("separated grid delivered no traffic")
	}
	together := run(wideOpenPlacement(PlaceGrid))
	if together.Inter == 0 {
		t.Fatal("wide-open world shows no interference; the comparison is vacuous")
	}
}
