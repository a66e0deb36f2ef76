package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

const specsGolden = "testdata/specs.golden"

// specGoldenRuns are the btsim -spec invocations pinned for every
// example spec: a straight run, and a two-replica campaign forked from
// one settled checkpoint.
var specGoldenRuns = []struct {
	name            string
	slots, settle   uint64
	trials, workers int
	fork            bool
}{
	{"straight", 2000, 0, 1, 1, false},
	{"fork", 2000, 1000, 2, 2, true},
}

// TestSpecOutputGolden pins the sha256 of the JSON btsim -spec prints
// for every examples/specs/*.json at seed 1, straight and with
// -trials 2 -fork -settle 1000 (a spec that cannot fork pins its error
// text instead), so a change that claims identical behaviour can cite
// this test instead of diffing the output by hand. Regenerate after an
// intended behaviour change with
//
//	go test ./cmd/btsim -run TestSpecOutputGolden -update
func TestSpecOutputGolden(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found (%v)", err)
	}
	var sb strings.Builder
	for _, path := range paths {
		for _, r := range specGoldenRuns {
			fmt.Fprintf(&sb, "%s %s slots=%d settle=%d trials=%d\n",
				filepath.Base(path), r.name, r.slots, r.settle, r.trials)
			out, err := specJSON(path, 1, r.slots, r.settle, r.trials, r.workers, r.fork, nil)
			if err != nil {
				fmt.Fprintf(&sb, "  error: %v\n", err)
				continue
			}
			fmt.Fprintf(&sb, "  json %x\n", sha256.Sum256(out))
		}
	}
	golden.Check(t, specsGolden, sb.String())
}
