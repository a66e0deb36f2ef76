package main

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/runner"
	"repro/internal/stats"
)

// trialProgress returns a per-run progress hook that rewrites one
// stderr line, or nil when stderr is not a terminal (piped output must
// stay free of carriage returns).
func trialProgress() func(name string, done, total int) {
	if fi, err := os.Stderr.Stat(); err != nil || fi.Mode()&os.ModeCharDevice == 0 {
		return nil
	}
	var mu sync.Mutex
	last := 0
	return func(name string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done <= last {
			return // stale report from a straggling worker
		}
		last = done
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials", name, done, total)
		if done == total {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
	}
}

// runScenarioTrial runs one silent replica of the scenario on its own
// simulation world. A setup panic (BuildPiconet giving up under heavy
// noise) becomes a failed outcome instead of killing the pool; the
// panic message is preserved so crashes are never silently converted
// into statistics.
func runScenarioTrial(scenario string, seed uint64, p trialParams) (out trialOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out = trialOutcome{Out: stats.CounterMap{}, Panic: fmt.Sprint(r)}
			out.Out.Observe("setup_ok", false)
			out.Out.Observe("panicked", true)
		}
	}()
	_, out = runScenario(scenario, seed, p, nil, nil)
	return out
}

// runTrials replicates the scenario through the parallel runner and
// prints the merged outcome and slave RF-activity statistics.
func runTrials(scenario string, trials, workers int, p trialParams, progress func(name string, done, total int)) {
	if !validScenario(scenario) {
		fmt.Fprintf(os.Stderr, "btsim: unknown scenario %q\n", scenario)
		os.Exit(1)
	}
	sw := runner.Sweep[string, trialOutcome]{
		Name:     scenario,
		Points:   []string{scenario},
		Replicas: trials,
		Seed:     func(_, replica int) uint64 { return p.seed + uint64(replica) },
		Trial: func(seed uint64, sc string) trialOutcome {
			return runScenarioTrial(sc, seed, p)
		},
	}
	res := sw.Run(runner.Config{Workers: workers, Progress: progress})

	var acc trialOutcome
	for i := range res[0] {
		acc.merge(&res[0][i])
	}
	t := stats.NewTable(fmt.Sprintf("%s: %d replicas (BER %g, %d slaves)", scenario, trials, p.ber, p.slaves),
		"outcome", "rate", "n")
	for _, k := range acc.Out.Keys() {
		c := acc.Out.Get(k)
		t.AddRow(k, c.Rate(), c.Total)
	}
	t.AddRow("slave_tx_activity_mean", acc.Tx.Mean(), acc.Tx.N())
	t.AddRow("slave_rx_activity_mean", acc.Rx.Mean(), acc.Rx.N())
	fmt.Println(t)
	if acc.Panic != "" {
		n := acc.Out.Get("panicked").Total
		fmt.Fprintf(os.Stderr, "btsim: %d replica(s) panicked during setup; first: %s\n", n, acc.Panic)
	}
}
