package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/sim"
)

// memTracer records every signal transition in memory, in emission
// order. Callbacks fire in the kernel's single (at, seq) order, so the
// record sequence pins the intra-instant callback order as well as the
// set of (time, signal, value) transitions.
type memTracer struct {
	names   []string
	records []traceRecord
}

type traceRecord struct {
	t    sim.Time
	line string
}

func (m *memTracer) Declare(name, kind string, width int) int {
	m.names = append(m.names, name)
	return len(m.names) - 1
}

func (m *memTracer) Change(t sim.Time, h int, v any) {
	m.records = append(m.records, traceRecord{t, fmt.Sprintf("%d %s %v", t, m.names[h], v)})
}

// suffix returns the transitions strictly after cut, in emission order. Records at
// the cut instant are pre-capture work on the straight arm and
// declaration artifacts on the restored arm; everything later is the
// behaviour the fork must reproduce.
func (m *memTracer) suffix(cut sim.Time) []string {
	var out []string
	for _, r := range m.records {
		if r.t > cut {
			out = append(out, r.line)
		}
	}
	return out
}

// forkMatrixParams builds the fork matrix's dense, mixed and mesh worlds.
var forkMatrixParams = trialParams{
	slaves: 2, ber: 1.0 / 500, seed: 1,
	tsniff: 50, thold: 100,
	piconets: 2, assessWindow: 500, jamDuty: 0.9, jamWidth: 23,
	bridges: 1, presence: 0.8,
}

// TestCheckpointForkMatrix is the checkpoint feature's headline pin:
// for the dense, mixed and mesh scenarios — spatial medium, SCO voice
// beside bulk ACL, bridged scatternet flows — settling to S,
// snapshotting, restoring and running to T must be byte-identical to
// running straight to T, in both World.Metrics and the signal trace
// after S. A second fork, through Encode and DecodeCheckpoint, stays
// byte-equal to the first; a fork under a different seed diverges.
// Both arms are traced (tracing disables event-eliding fast paths, so
// an untraced straight arm would not be the same schedule). Runs under
// -race in its own CI step.
func TestCheckpointForkMatrix(t *testing.T) {
	p := forkMatrixParams
	const settle, rest = 400, 600

	for _, scenario := range []string{"dense", "mixed", "mesh"} {
		t.Run(scenario, func(t *testing.T) {
			opts := core.Options{Seed: p.seed, BER: p.ber}
			spec := buildSpec(scenario, p)

			// Straight arm: settle, capture, keep running to T.
			tr := &memTracer{}
			s := core.NewSimulation(opts)
			s.K.AddTracer(tr)
			w, err := netspec.Build(s, spec)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			w.Start()
			s.RunSlots(settle)
			ck, err := w.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			cut := ck.Core.At
			w.ResetMetrics()
			s.RunSlots(rest)
			straight := metricsJSON(t, w)

			// The forks restore from the in-memory capture after the
			// straight arm ran on past it, as the fork paths do.
			fork := func(ck *netspec.WorldCheckpoint, forkSeed uint64) (string, []string) {
				ftr := &memTracer{}
				fs := core.NewSimulation(opts)
				fs.K.AddTracer(ftr)
				fw, err := netspec.RestoreWorld(fs, ck, core.RestoreOptions{ForkSeed: forkSeed})
				if err != nil {
					t.Fatalf("RestoreWorld: %v", err)
				}
				fw.ResetMetrics()
				fs.RunSlots(rest)
				return metricsJSON(t, fw), ftr.suffix(cut)
			}

			restored, restoredTrace := fork(ck, 0)
			if restored != straight {
				t.Errorf("restored metrics diverge from straight run:\n--- straight\n%s\n--- restored\n%s", straight, restored)
			}
			straightTrace := tr.suffix(cut)
			if len(straightTrace) == 0 {
				t.Fatal("straight arm recorded no post-capture transitions; the trace comparison is vacuous")
			}
			if a, b := len(straightTrace), len(restoredTrace); a != b {
				t.Errorf("trace suffix lengths differ: straight %d, restored %d", a, b)
			} else {
				for i := range straightTrace {
					if straightTrace[i] != restoredTrace[i] {
						t.Errorf("trace suffix diverges at %d:\n  straight: %s\n  restored: %s",
							i, straightTrace[i], restoredTrace[i])
						break
					}
				}
			}

			// A second fork goes through the wire form and stays
			// byte-equal to the first.
			enc, err := ck.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			dck, err := netspec.DecodeCheckpoint(enc)
			if err != nil {
				t.Fatalf("DecodeCheckpoint: %v", err)
			}
			again, _ := fork(dck, 0)
			if again != restored {
				t.Error("in-memory and decoded forks diverge")
			}
			other, _ := fork(ck, 7)
			if other == restored {
				t.Error("fork seed 7 did not diverge from seed 0")
			}
		})
	}
}

// TestSharedCaptureRestores is internal/netspec's test of the same name
// on the fork matrix's worlds: restores running concurrently from one
// capture, while the source world runs on, each match a restore from a
// private decoded copy in Metrics and signal trace, and the capture
// encodes to the same bytes afterwards. Runs under -race in CI.
func TestSharedCaptureRestores(t *testing.T) {
	p := forkMatrixParams
	const settle, rest = 400, 600
	seeds := []uint64{0, 0, 7, 7}

	for _, scenario := range []string{"dense", "mixed", "mesh"} {
		t.Run(scenario, func(t *testing.T) {
			opts := core.Options{Seed: p.seed, BER: p.ber}
			s := core.NewSimulation(opts)
			w, err := netspec.Build(s, buildSpec(scenario, p))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			w.Start()
			s.RunSlots(settle)
			ck, err := w.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			before, err := ck.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			// fork returns the fork's Metrics JSON and post-capture trace
			// as one string.
			fork := func(ck *netspec.WorldCheckpoint, forkSeed uint64) (string, error) {
				tr := &memTracer{}
				fs := core.NewSimulation(opts)
				fs.K.AddTracer(tr)
				fw, err := netspec.RestoreWorld(fs, ck, core.RestoreOptions{ForkSeed: forkSeed})
				if err != nil {
					return "", err
				}
				fw.ResetMetrics()
				fs.RunSlots(rest)
				m, err := json.Marshal(fw.Metrics())
				return fmt.Sprintf("%s\n%q", m, tr.suffix(ck.Core.At)), err
			}

			shared := make([]string, len(seeds))
			errs := make([]error, len(seeds))
			var wg sync.WaitGroup
			wg.Add(len(seeds) + 1)
			go func() {
				defer wg.Done()
				s.RunSlots(rest)
			}()
			for i, seed := range seeds {
				go func() {
					defer wg.Done()
					shared[i], errs[i] = fork(ck, seed)
				}()
			}
			wg.Wait()

			for i, seed := range seeds {
				if errs[i] != nil {
					t.Fatalf("shared restore %d: %v", i, errs[i])
				}
				dck, err := netspec.DecodeCheckpoint(before)
				if err != nil {
					t.Fatalf("DecodeCheckpoint: %v", err)
				}
				private, err := fork(dck, seed)
				if err != nil {
					t.Fatalf("private restore: %v", err)
				}
				if shared[i] != private {
					t.Errorf("shared restore %d (seed %d) diverges from a private copy", i, seed)
				}
			}
			after, err := ck.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if !bytes.Equal(before, after) {
				t.Error("restores or the source world changed the shared capture")
			}
		})
	}
}

func metricsJSON(t *testing.T, w *netspec.World) string {
	t.Helper()
	b, err := json.Marshal(w.Metrics())
	if err != nil {
		t.Fatalf("Metrics marshal: %v", err)
	}
	return string(b)
}
