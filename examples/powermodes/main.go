// powermodes compares the RF activity — and with the power profile, the
// average front-end power — of a slave in ACTIVE, SNIFF, HOLD and PARK
// modes, the design space of the paper's section 3.2. Each arm is one
// netspec.Spec: the piconet stanza plus a PowerMode stanza, with an
// activity probe feeding the measurement — LMP-negotiated transitions
// remain available at run time through the piconet's LMP manager.
//
// testdata/stdout.golden pins everything it prints; after an intended
// change, regenerate it with
//
//	go test ./examples/powermodes -update
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/power"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	profile := power.DefaultProfile()
	fmt.Fprintf(w, "%-28s %10s %10s %12s\n", "mode", "tx_act", "rx_act", "avg_power_mW")

	for _, arm := range []struct {
		name  string
		modes []netspec.PowerMode
	}{
		{"active", nil},
		{"sniff Tsniff=40", []netspec.PowerMode{{Kind: netspec.SniffMode, TsniffSlots: 40}}},
		{"sniff Tsniff=100", []netspec.PowerMode{{Kind: netspec.SniffMode, TsniffSlots: 100}}},
		{"hold Thold=200 (repeating)", []netspec.PowerMode{{Kind: netspec.HoldMode, TholdSlots: 200}}},
		{"hold Thold=800 (repeating)", []netspec.PowerMode{{Kind: netspec.HoldMode, TholdSlots: 800}}},
		{"park beacon=64", []netspec.PowerMode{{Kind: netspec.ParkMode, BeaconSlots: 64}}},
	} {
		sim := core.NewSimulation(core.Options{Seed: 7})
		world, err := netspec.Build(sim, netspec.Spec{
			Piconets: []netspec.Piconet{{Slaves: 1}},
			Modes:    arm.modes,
			Probes: []netspec.Probe{
				{Name: "slave", Kind: netspec.ProbeSlaveActivity, Piconet: 0},
			},
		})
		if err != nil {
			return err
		}
		// Let the mode entry and a first cycle settle, then measure a
		// clean 12.5-simulated-second window.
		sim.RunSlots(1500)
		world.ResetMetrics()
		sim.RunSlots(20000)
		m := world.Metrics()
		act := m.Probes["slave"]
		slave := world.Piconets[0].Slaves[0]
		fmt.Fprintf(w, "%-28s %9.3f%% %9.3f%% %12.3f\n",
			arm.name, act.Tx.Mean()*100, act.Rx.Mean()*100,
			profile.Average(slave.TxMeter, slave.RxMeter))
	}

	fmt.Fprintln(w, "\nsniff pays off for long Tsniff, hold for long Thold, and park is")
	fmt.Fprintln(w, "the cheapest way to stay synchronised — matching the paper's Figs 11-12.")
	return nil
}
