package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/golden"
)

const scenariosGolden = "testdata/scenarios.golden"

// scenarioOutput runs one scenario as a single interactive btsim run
// would and renders what that run emits: the sha256 of the narrated
// log, the sha256 of the VCD when validateTrace allows -vcd, and the
// report table verbatim. A setup that panics renders its message
// instead.
func scenarioOutput(set, name string, p trialParams) (out string) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s ber=%g seed=%d\n", set, name, p.ber, p.seed)
	defer func() {
		if r := recover(); r != nil {
			out = sb.String() + fmt.Sprintf("  panic: %v\n", r)
		}
	}()
	var log, vcd, table bytes.Buffer
	var trace io.Writer
	traced := validateTrace(name, p) == nil
	if traced {
		trace = &vcd
	}
	s, _ := runScenario(name, p.seed, p, trace, func(format string, args ...any) {
		fmt.Fprintf(&log, format, args...)
	})
	report(&table, s)
	if err := s.Close(); err != nil {
		panic(fmt.Sprintf("closing trace: %v", err))
	}
	fmt.Fprintf(&sb, "  log %x\n", sha256.Sum256(log.Bytes()))
	if traced {
		fmt.Fprintf(&sb, "  vcd %x\n", sha256.Sum256(vcd.Bytes()))
	}
	for _, line := range strings.Split(strings.Trim(table.String(), "\n"), "\n") {
		fmt.Fprintf(&sb, "  %s\n", line)
	}
	return sb.String()
}

// noisy returns p at BER 0.01, seed 3.
func noisy(p trialParams) trialParams {
	p.ber, p.seed = 0.01, 3
	return p
}

// TestScenarioOutputGolden pins what every registry scenario prints, at
// the registry test's parameters and at btsim's default flags, each
// noiseless and again at BER 0.01, seed 3, so a change that claims
// identical behaviour can cite this test instead of diffing btsim
// output by hand. Regenerate after an intended behaviour change with
//
//	go test ./cmd/btsim -run TestScenarioOutputGolden -update
func TestScenarioOutputGolden(t *testing.T) {
	var sb strings.Builder
	for _, set := range []struct {
		name string
		p    trialParams
	}{
		{"registry", registryParams},
		{"registry", noisy(registryParams)},
		{"defaults", defaultParams},
		{"defaults", noisy(defaultParams)},
	} {
		for _, sc := range scenarioRegistry {
			sb.WriteString(scenarioOutput(set.name, sc.name, set.p))
		}
	}
	golden.Check(t, scenariosGolden, sb.String())
}
