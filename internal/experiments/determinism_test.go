package experiments

import (
	"testing"

	"repro/internal/runner"
)

// TestRunnerDeterminism asserts the tentpole contract of the parallel
// runner: a Fig-6-class sweep rendered as tables must be byte-identical
// whether the replicas ran inline on one goroutine, on a single-worker
// pool, or fanned out across N workers. The table strings (not just the
// rows) are compared so formatting-order bugs would also surface.
func TestRunnerDeterminism(t *testing.T) {
	bers := []BERPoint{{"1/100", 0.01}, {"1/50", 0.02}, {"1/30", 1.0 / 30}}
	render := func(cfg runner.Config) string {
		inq := InquirySweep(bers, 8, cfg)
		page := PageSweep(bers, 8, cfg)
		abl := AblationBackoff([]int{127, 1023}, 0.01, 4, cfg)
		return Fig6Table(inq).String() +
			Fig7Table(page).String() +
			Fig8Table(inq, page).CSV() +
			AblationTable("abl", "span", abl).String()
	}

	want := render(runner.Config{Workers: runner.Serial})
	for _, workers := range []int{1, 4, 16} {
		if got := render(runner.Config{Workers: workers}); got != want {
			t.Fatalf("tables diverged at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestSingleReplicaSweepsDeterministic covers the single-replica
// figures (activity measurements and goodput sweeps) across schedules.
func TestSingleReplicaSweepsDeterministic(t *testing.T) {
	render := func(cfg runner.Config) string {
		f10 := Fig10MasterActivity([]float64{0, 0.01, 0.02}, 2000, 1, cfg)
		f11 := Fig11SniffActivity([]int{20, 100}, 100, 3000, 2, cfg)
		f12 := Fig12HoldActivity([]int{50, 400}, 4000, 3, cfg)
		return Fig10Table(f10).String() + Fig11Table(f11).String() + Fig12Table(f12).String()
	}

	want := render(runner.Config{Workers: runner.Serial})
	if got := render(runner.Config{Workers: 4}); got != want {
		t.Fatalf("single-replica tables diverged:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}
