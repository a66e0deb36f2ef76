package experiments

import (
	"path/filepath"
	"testing"

	"repro/internal/golden"
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
	golden.Check(t, filepath.Join("testdata", "fork.golden"), got)
}
