package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/simd"
)

// runSpecFile runs a world described by a netspec Spec JSON file (see
// examples/specs/) instead of a named scenario and prints specJSON's
// output, or its error on stderr with exit status 1.
func runSpecFile(path string, seed, slots, settle uint64, trials, workers int, fork bool, progress func(string, int, int)) {
	out, err := specJSON(path, seed, slots, settle, trials, workers, fork, progress)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", out)
}

// specJSON runs a spec file under the exact replica discipline the
// btsimd service uses. A single run returns one Metrics window; -trials
// N returns the campaign Result over seeds seed..seed+N-1. Either way
// the JSON is byte-identical to what the service returns for the same
// spec, seeds and horizon — the CLI and the server share
// simd.RunReplica.
func specJSON(path string, seed, slots, settle uint64, trials, workers int, fork bool, progress func(string, int, int)) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("btsim: %v", err)
	}
	var spec netspec.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("btsim: decoding %s: %v", path, err)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("btsim: %s: %v", path, err)
	}

	var v any
	if trials <= 1 {
		var m netspec.Metrics
		if fork {
			// One settled world, one fork with seed 0: the straight
			// continuation of the checkpoint — same discipline as
			// replica 0 of a forked campaign.
			ck, err := simd.SettleCheckpoint(spec, seed, settle)
			if err != nil {
				return nil, fmt.Errorf("btsim: %v", err)
			}
			if m, err = simd.ForkReplica(nil, ck, 0, slots); err != nil {
				return nil, fmt.Errorf("btsim: %v", err)
			}
		} else if m, err = simd.RunReplica(nil, spec, seed, settle, slots); err != nil {
			return nil, fmt.Errorf("btsim: %v", err)
		}
		v = m
	} else {
		res, err := simd.Run(context.Background(), simd.Request{
			Spec:        &spec,
			Seeds:       simd.SeedRange{First: seed, Count: trials},
			Slots:       slots,
			SettleSlots: settle,
			Fork:        fork,
		}, runner.Config{Workers: workers, Progress: progress})
		if err != nil {
			return nil, fmt.Errorf("btsim: %v", err)
		}
		v = res
	}
	out, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("btsim: encoding result: %v", err)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
