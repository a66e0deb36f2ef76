// Command btsim runs interactive scenarios on the Bluetooth system-level
// model and reports protocol events and RF-activity summaries; with -vcd
// it also dumps the waveforms (enable_tx_RF / enable_rx_RF / state) the
// paper's Figs 5 and 9 show.
//
// With -trials N (N > 1) the scenario instead runs as N independent
// replicas — one fresh simulation per seed — fanned out across the
// internal/runner worker pool, and btsim reports the merged outcome and
// RF-activity statistics.
//
// With -spec file.json the world comes from a netspec Spec JSON file
// (see examples/specs/) instead of a named scenario: btsim runs -slots
// measured slots from -seed and prints the Metrics window as JSON —
// with -trials N, the whole campaign result over N seeds — under the
// same replica discipline as the btsimd service, so the output is
// byte-identical to the corresponding service response fields. -settle
// adds warm-up slots before the measurement window; -fork settles once,
// snapshots the world at a quiescent slot edge, and forks the replicas
// from the checkpoint instead of rebuilding and re-settling each one.
//
// The scenario list is registered in scenarios.go (scenarioRegistry) and
// rendered into the usage text at run time, so `btsim -h` always
// enumerates every scenario the binary actually accepts — run it for
// the authoritative list and one-line summaries.
//
// Usage:
//
//	btsim -scenario creation -slaves 3 -vcd creation.vcd
//	btsim -scenario creation -ber 0.01 -trials 200 -workers 8
//	btsim -scenario coex -piconets 6 -trials 50 -workers 8
//	btsim -scenario afh-adaptive -jam-duty 0.9 -assess-window 2000
//	btsim -scenario scatternet -bridges 2 -presence 0.8
//	btsim -scenario mixed -piconets 3
//	btsim -scenario mesh -presence 0.8
//	btsim -spec examples/specs/office-floor.json -slots 20000 -trials 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// defaultParams holds the scenario flags' defaults.
var defaultParams = trialParams{
	slaves: 3, ber: 0, seed: 1, slots: 2000,
	tsniff: 100, thold: 400,
	piconets: 2, assessWindow: 2000, jamDuty: 0.9, jamWidth: 23,
	bridges: 1, presence: 0.8,
}

func main() {
	scenario := flag.String("scenario", "creation", scenarioList())
	specPath := flag.String("spec", "", "run a netspec Spec JSON file instead of a named scenario (prints Metrics JSON; with -trials, the campaign result)")
	slaves := flag.Int("slaves", defaultParams.slaves, "number of slaves in the piconet")
	ber := flag.Float64("ber", defaultParams.ber, "channel bit error rate")
	seed := flag.Uint64("seed", defaultParams.seed, "random seed")
	vcdPath := flag.String("vcd", "", "write waveforms (VCD) to this file (single-piconet scenarios only)")
	slots := flag.Uint64("slots", defaultParams.slots, "extra slots to run after setup")
	tsniff := flag.Int("tsniff", defaultParams.tsniff, "Tsniff in slots (sniff scenario)")
	thold := flag.Int("thold", defaultParams.thold, "Thold in slots (hold scenario)")
	piconets := flag.Int("piconets", defaultParams.piconets, "co-located piconets (coex scenario)")
	assessWindow := flag.Int("assess-window", defaultParams.assessWindow, "channel-assessment window in slots (afh-adaptive scenario)")
	jamDuty := flag.Float64("jam-duty", defaultParams.jamDuty, "jammer duty cycle (afh-adaptive scenario)")
	jamWidth := flag.Int("jam-width", defaultParams.jamWidth, "jammed channels starting at channel 30 (afh-adaptive scenario)")
	bridges := flag.Int("bridges", defaultParams.bridges, "scatternet bridges; the chain has bridges+1 piconets (scatternet scenario)")
	presence := flag.Float64("presence", defaultParams.presence, "bridge presence duty cycle in (0,1] (scatternet scenario)")
	settle := flag.Uint64("settle", 0, "warm-up slots before the measurement window opens (-spec only)")
	fork := flag.Bool("fork", false, "settle once, snapshot, and fork the replicas from the checkpoint instead of rebuilding each world (-spec only)")
	trials := flag.Int("trials", 1, "replicate the scenario this many times through the parallel runner")
	workers := flag.Int("workers", 0, "worker pool size for -trials (0 = GOMAXPROCS, -1 = serial)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\n%s", scenarioUsage())
	}
	flag.Parse()

	if *specPath != "" {
		if *vcdPath != "" {
			fmt.Fprintln(os.Stderr, "btsim: -vcd applies to named scenarios only; -spec runs write no waveforms")
			os.Exit(1)
		}
		runSpecFile(*specPath, *seed, *slots, *settle, *trials, *workers, *fork, trialProgress())
		return
	}
	if *fork || *settle != 0 {
		fmt.Fprintln(os.Stderr, "btsim: -fork and -settle apply to -spec runs only")
		os.Exit(1)
	}

	p := trialParams{
		slaves: *slaves, ber: *ber, seed: *seed,
		slots: *slots, tsniff: *tsniff, thold: *thold,
		piconets: *piconets, assessWindow: *assessWindow,
		jamDuty: *jamDuty, jamWidth: *jamWidth,
		bridges: *bridges, presence: *presence,
	}
	if err := validateParams(*scenario, p); err != nil {
		fmt.Fprintf(os.Stderr, "btsim: %v\n", err)
		os.Exit(1)
	}

	if *trials > 1 {
		if *vcdPath != "" {
			fmt.Fprintln(os.Stderr, "btsim: -vcd is single-run only; ignoring it for -trials")
		}
		runTrials(*scenario, *trials, *workers, p, trialProgress())
		return
	}

	if !validScenario(*scenario) {
		fmt.Fprintf(os.Stderr, "btsim: unknown scenario %q\n", *scenario)
		os.Exit(1)
	}

	var trace io.Writer
	if *vcdPath != "" {
		if err := validateTrace(*scenario, p); err != nil {
			fmt.Fprintf(os.Stderr, "btsim: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*vcdPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "btsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		trace = f
	}

	s, _ := runScenario(*scenario, *seed, p, trace, func(format string, args ...any) {
		fmt.Printf(format, args...)
	})
	report(os.Stdout, s)

	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "btsim: closing trace: %v\n", err)
		os.Exit(1)
	}
	if *vcdPath != "" {
		fmt.Printf("waveforms written to %s\n", *vcdPath)
	}
}

// report writes the RF-activity summary of every device to w.
func report(w io.Writer, s *core.Simulation) {
	fmt.Fprintf(w, "\n%-8s %-12s %10s %10s %8s\n", "device", "state", "tx_act", "rx_act", "tx_pkts")
	for _, d := range s.Devices() {
		tx, rx := core.Activity(d)
		fmt.Fprintf(w, "%-8s %-12s %9.3f%% %9.3f%% %8d\n",
			d.Name(), d.State(), tx*100, rx*100, d.Counters.TxPackets)
	}
}
