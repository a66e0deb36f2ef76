package experiments

import (
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestScatternetSweepMonotoneInDuty(t *testing.T) {
	rows := ScatternetSweep([]float64{0.3, 0.6, 0.9}, 8000, 2, 29)
	lo, mid, hi := rows[0], rows[1], rows[2]
	if lo.GoodputKbps <= 0 {
		t.Fatalf("no goodput at duty 0.3: %+v", lo)
	}
	// The acceptance bar: goodput monotone in bridge presence duty.
	if !(lo.GoodputKbps < mid.GoodputKbps && mid.GoodputKbps < hi.GoodputKbps) {
		t.Fatalf("goodput not monotone in duty: %.2f, %.2f, %.2f kbps",
			lo.GoodputKbps, mid.GoodputKbps, hi.GoodputKbps)
	}
	// Wider windows drain the bounded queue faster, so the bridge
	// forwarding latency falls as duty rises.
	if !(lo.FwdLatencyMs > mid.FwdLatencyMs && mid.FwdLatencyMs > hi.FwdLatencyMs) {
		t.Fatalf("forwarding latency not decreasing in duty: %.1f, %.1f, %.1f ms",
			lo.FwdLatencyMs, mid.FwdLatencyMs, hi.FwdLatencyMs)
	}
	if hi.Forwarded <= lo.Forwarded {
		t.Fatalf("forwarded frames not growing with duty: %v vs %v", hi.Forwarded, lo.Forwarded)
	}
	if !strings.Contains(ScatternetTable(rows).String(), "fwd_latency_ms") {
		t.Fatal("table broken")
	}
}

// TestScatternetSweepDeterministicAcrossWorkers pins the acceptance
// criterion that the sweep is byte-identical across worker counts.
func TestScatternetSweepDeterministicAcrossWorkers(t *testing.T) {
	render := func(cfg runner.Config) string {
		return ScatternetTable(ScatternetSweep([]float64{0.4, 0.8}, 4000, 2, 31, cfg)).String()
	}
	want := render(runner.Config{Workers: runner.Serial})
	for _, workers := range []int{1, 4} {
		if got := render(runner.Config{Workers: workers}); got != want {
			t.Fatalf("tables diverged at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				workers, want, workers, got)
		}
	}
}
