package main

import (
	"encoding/json"
	"fmt"
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

// TestCheckpointForkMatrix is the checkpoint feature's headline pin:
// for the dense, mixed and mesh scenarios — spatial medium, SCO voice
// beside bulk ACL, bridged scatternet flows — settling to S,
// snapshotting, restoring and running to T must be byte-identical to
// running straight to T, in both World.Metrics and the signal trace
// after S. A second fork from the same bytes stays
// byte-equal to the first; a fork under a different seed diverges.
// Both arms are traced (tracing disables event-eliding fast paths, so
// an untraced straight arm would not be the same schedule). Runs under
// -race in its own CI step.
func TestCheckpointForkMatrix(t *testing.T) {
	p := trialParams{
		slaves: 2, ber: 1.0 / 500, seed: 1,
		tsniff: 50, thold: 100,
		piconets: 2, assessWindow: 500, jamDuty: 0.9, jamWidth: 23,
		bridges: 1, presence: 0.8,
	}
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
			enc, err := ck.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			cut := ck.Core.At
			w.ResetMetrics()
			s.RunSlots(rest)
			straight := metricsJSON(t, w)

			fork := func(forkSeed uint64) (string, []string) {
				dck, err := netspec.DecodeCheckpoint(enc)
				if err != nil {
					t.Fatalf("DecodeCheckpoint: %v", err)
				}
				ftr := &memTracer{}
				fs := core.NewSimulation(opts)
				fs.K.AddTracer(ftr)
				fw, err := netspec.RestoreWorld(fs, dck, core.RestoreOptions{ForkSeed: forkSeed})
				if err != nil {
					t.Fatalf("RestoreWorld: %v", err)
				}
				fw.ResetMetrics()
				fs.RunSlots(rest)
				return metricsJSON(t, fw), ftr.suffix(cut)
			}

			restored, restoredTrace := fork(0)
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

			again, _ := fork(0)
			if again != restored {
				t.Error("two identical forks diverge")
			}
			other, _ := fork(7)
			if other == restored {
				t.Error("fork seed 7 did not diverge from seed 0")
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
