// Coexistence walkthrough: four independent piconets share the 79
// channels of the ISM band with an 802.11-style jammer parked on
// channels 30-52, and every piconet defends itself with adaptive
// frequency hopping — the master tallies per-frequency reception errors,
// classifies channels good/bad, and pushes the learned hop set to its
// slave over LMP. This is the shared-medium scenario of the paper's
// coexistence references [3-5] with the v1.2 AFH fix learned on the air
// instead of hand-picked.
//
// The whole world is one netspec.Spec: the piconet, traffic and jammer
// stanzas below are the entire setup, and the unified Metrics surface
// replaces hand-collected counters.
//
// testdata/stdout.golden pins everything it prints; after an intended
// change, regenerate it with
//
//	go test ./examples/coexistence -update
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/hop"
	"repro/internal/netspec"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// An 802.11 DSSS network occupies 23 channels at 90% duty: any
	// Bluetooth packet on channels 30-52 is destroyed 9 times out of 10.
	const jamLo, jamHi, jamDuty = 30, 52, 0.9

	// One world, one shared channel; everything derives from the seed.
	// Four piconets, each learning its channel map every 1500 slots,
	// each saturated by a bulk ACL pump. The jammer is installed after
	// construction, so the piconets assemble on a clean medium.
	sim := core.NewSimulation(core.Options{Seed: 2005})
	world, err := netspec.Build(sim, netspec.Spec{
		Piconets: slices.Repeat([]netspec.Piconet{{
			Slaves: 1, TpollSlots: netspec.TpollNever,
			AFH: netspec.AFHAdaptive, AssessWindowSlots: 1500,
		}}, 4),
		Traffic: []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
		Jammers: []netspec.Jammer{{Lo: jamLo, Hi: jamHi, Duty: jamDuty}},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "built %d piconets on one medium, jammer on channels %d-%d (duty %.0f%%)\n\n",
		len(world.Piconets), jamLo, jamHi, jamDuty*100)

	// Saturating master-to-slave traffic plus the classification loops.
	world.Start()

	// Let every master see two assessment windows and switch maps.
	warmup := netspec.ConvergenceSlots(1500)
	sim.RunSlots(warmup)
	fmt.Fprintf(w, "after %d warm-up slots:\n", warmup)
	for _, p := range world.Piconets {
		cm := p.CurrentMap()
		if cm == nil {
			fmt.Fprintf(w, "  piconet %d: still hopping all %d channels\n", p.Index, hop.NumChannels)
			continue
		}
		excluded := 0
		for ch := jamLo; ch <= jamHi; ch++ {
			if !cm.Used(ch) {
				excluded++
			}
		}
		fmt.Fprintf(w, "  piconet %d: learned map uses %d channels, excludes %d/%d jammed ones (%d update(s))\n",
			p.Index, cm.N(), excluded, jamHi-jamLo+1, p.MapUpdates)
	}

	// Measure a clean window: ResetMetrics opens it (snapshotting the
	// per-frequency channel counters), one Metrics read closes the
	// books — goodput, collision attribution and the per-channel
	// breakdown all come from the same surface.
	const measure = 8000
	world.ResetMetrics()
	sim.RunSlots(measure)
	m := world.Metrics()
	fmt.Fprintf(w, "\nover a %d-slot measurement window:\n", measure)
	for i := range world.Piconets {
		fmt.Fprintf(w, "  piconet %d: %.1f kbps goodput\n", i, m.PiconetGoodputKbps(i))
	}
	fmt.Fprintf(w, "  collisions: %d inter-piconet, %d intra-piconet; %d retransmissions\n",
		m.Inter, m.Intra, m.Retransmits)

	// The metrics carry the window's per-frequency delta; with the
	// learned maps installed, essentially nothing hops into the jammed
	// band any more.
	inBand, outBand := 0, 0
	for ch, fc := range m.PerFreq {
		if ch >= jamLo && ch <= jamHi {
			inBand += fc.Transmissions
		} else {
			outBand += fc.Transmissions
		}
	}
	fmt.Fprintf(w, "  transmissions this window: %d inside the jammed band, %d outside (%.2f%% in-band;\n"+
		"  a full-band hopper would put ~%.0f%% there)\n",
		inBand, outBand, float64(inBand)/float64(inBand+outBand)*100,
		float64(jamHi-jamLo+1)/float64(hop.NumChannels)*100)
	return nil
}
