package main

import (
	"io"
	"testing"
)

// registryParams is the short-horizon parameter set every registry
// scenario runs at in these tests.
var registryParams = trialParams{
	slaves: 2, ber: 0, seed: 1, slots: 600,
	tsniff: 50, thold: 100,
	piconets: 2, assessWindow: 500, jamDuty: 0.9, jamWidth: 23,
	bridges: 1, presence: 0.8,
}

// TestScenarioRegistryRuns executes every registered scenario for a
// short horizon, so no -scenario value can rot unexecuted: a scenario
// that panics, fails validation or never reaches setup_ok fails here
// before it fails a user. Each scenario also runs once more as -vcd
// would, traced into io.Discard, unless validateTrace refuses it; a
// traced run must not panic. The CI workflow runs this check next to
// the godoc-example race job.
func TestScenarioRegistryRuns(t *testing.T) {
	p := registryParams
	for _, sc := range scenarioRegistry {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			if !validScenario(sc.name) {
				t.Fatalf("registry entry %q fails its own validator", sc.name)
			}
			if err := validateParams(sc.name, p); err != nil {
				t.Fatalf("registry params invalid for %q: %v", sc.name, err)
			}
			_, out := runScenario(sc.name, p.seed, p, nil, nil)
			c := out.Out.Get("setup_ok")
			if c.Total == 0 || c.Rate() < 1 {
				t.Fatalf("scenario %q did not set up: %v", sc.name, out.Out)
			}
			if err := validateTrace(sc.name, p); err != nil {
				return // -vcd exits 1 before creating the file
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("traced %q panicked: %v", sc.name, r)
				}
			}()
			s, _ := runScenario(sc.name, p.seed, p, io.Discard, nil)
			if err := s.Close(); err != nil {
				t.Fatalf("traced %q: closing trace: %v", sc.name, err)
			}
		})
	}
}

// TestTrialsPathRecoversPanics pins the replica campaign's contract:
// a setup crash becomes a counted outcome, not a dead worker pool.
func TestTrialsPathRecoversPanics(t *testing.T) {
	p := trialParams{
		slaves: 2, ber: 1.0 / 3, seed: 1, slots: 64, // absurd BER: paging fails
		tsniff: 50, thold: 100, piconets: 1, assessWindow: 500,
		jamDuty: 0.5, jamWidth: 23, bridges: 1, presence: 0.8,
	}
	out := runScenarioTrial("creation", p.seed, p)
	if out.Panic == "" {
		t.Skip("paging survived BER 1/3; nothing to recover")
	}
	c := out.Out.Get("panicked")
	if c.Total != 1 || c.Rate() != 1 {
		t.Fatalf("panic not converted to an outcome: %v", out.Out)
	}
}
