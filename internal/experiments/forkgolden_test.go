package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
)

// TestForkGolden pins the checkpoint-fork table (btexp -fig fork) at
// small sizes: both arms of ForkEnsemble — independent replicas and
// forks of one settled world — over one and two office-floor
// piconets. It has its own golden so figures.golden stays untouched.
// Regenerate with
//
//	go test ./internal/experiments -run TestForkGolden -update
func TestForkGolden(t *testing.T) {
	got := ForkTable(ForkEnsemble([]int{1, 2}, 1000, 500, 2, 1,
		runner.Config{Workers: runner.Serial})).String()

	golden := filepath.Join("testdata", "fork.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden snapshot (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("fork table diverged from %s (regenerate with -update if intended):\n--- golden ---\n%s\n--- got ---\n%s",
			golden, want, got)
	}
}
