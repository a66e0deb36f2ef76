// powermodes compares the RF activity — and with the power profile, the
// average front-end power — of a slave in ACTIVE, SNIFF, HOLD and PARK
// modes, the design space of the paper's section 3.2. Each arm is one
// netspec.Spec: the piconet stanza plus a PowerMode stanza, with an
// activity probe feeding the measurement — LMP-negotiated transitions
// remain available at run time through the piconet's LMP manager.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/power"
)

func main() {
	profile := power.DefaultProfile()
	fmt.Printf("%-28s %10s %10s %12s\n", "mode", "tx_act", "rx_act", "avg_power_mW")

	measure := func(name string, modes ...netspec.PowerMode) {
		sim := core.NewSimulation(core.Options{Seed: 7})
		world, err := netspec.Build(sim, netspec.Spec{
			Piconets: []netspec.Piconet{{Slaves: 1}},
			Modes:    modes,
			Probes: []netspec.Probe{
				{Name: "slave", Kind: netspec.ProbeSlaveActivity, Piconet: 0},
			},
		})
		if err != nil {
			panic(err)
		}
		// Let the mode entry and a first cycle settle, then measure a
		// clean 12.5-simulated-second window.
		sim.RunSlots(1500)
		world.ResetMetrics()
		sim.RunSlots(20000)
		m := world.Metrics()
		act := m.Probes["slave"]
		slave := world.Piconets[0].Slaves[0]
		fmt.Printf("%-28s %9.3f%% %9.3f%% %12.3f\n",
			name, act.Tx.Mean()*100, act.Rx.Mean()*100,
			profile.Average(slave.TxMeter, slave.RxMeter))
	}

	measure("active")
	measure("sniff Tsniff=40",
		netspec.PowerMode{Kind: netspec.SniffMode, TsniffSlots: 40})
	measure("sniff Tsniff=100",
		netspec.PowerMode{Kind: netspec.SniffMode, TsniffSlots: 100})
	measure("hold Thold=200 (repeating)",
		netspec.PowerMode{Kind: netspec.HoldMode, TholdSlots: 200})
	measure("hold Thold=800 (repeating)",
		netspec.PowerMode{Kind: netspec.HoldMode, TholdSlots: 800})
	measure("park beacon=64",
		netspec.PowerMode{Kind: netspec.ParkMode, BeaconSlots: 64})

	fmt.Println("\nsniff pays off for long Tsniff, hold for long Thold, and park is")
	fmt.Println("the cheapest way to stay synchronised — matching the paper's Figs 11-12.")
}
