package experiments

import (
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestCoexSweepDegradation(t *testing.T) {
	rows := SharedEther.Sweep([]int{1, 4}, 4000, 3, 17)
	single, quad := rows[0], rows[1]
	if single.PerLinkKbs <= 0 {
		t.Fatal("no single-piconet goodput")
	}
	if single.Inter != 0 {
		t.Fatalf("a lone piconet cannot collide across piconets: %v", single.Inter)
	}
	if quad.Inter == 0 {
		t.Fatal("four co-located piconets must collide across piconets")
	}
	if quad.PerLinkKbs >= single.PerLinkKbs {
		t.Fatalf("no degradation: %v vs %v", quad.PerLinkKbs, single.PerLinkKbs)
	}
	// FHSS keeps the degradation mild (~1-2 collisions per 79
	// slot-pairs per foreign piconet).
	if quad.PerLinkKbs < single.PerLinkKbs*0.7 {
		t.Fatalf("degradation implausibly harsh: %v vs %v", quad.PerLinkKbs, single.PerLinkKbs)
	}
	if quad.Retransmits <= single.Retransmits {
		t.Fatalf("inter-piconet collisions must cost retransmissions: %v vs %v",
			quad.Retransmits, single.Retransmits)
	}
	if !strings.Contains(SharedEther.Table(rows).String(), "inter_collisions") {
		t.Fatal("table broken")
	}
}

func TestAdaptiveAFHRecoversOracleGoodput(t *testing.T) {
	rows := AdaptiveAFH([]int{23}, 0.9, 1500, 6000, 19)
	r := rows[0]
	if r.PlainKbs <= 0 || r.OracleKbs <= 0 {
		t.Fatalf("no goodput: %+v", r)
	}
	if r.OracleKbs <= r.PlainKbs*1.1 {
		t.Fatalf("oracle AFH did not help under the jammer: %+v", r)
	}
	// Acceptance bar: the learned map recovers >= 80% of the oracle
	// ExcludeRange throughput under the 22 MHz (23-channel) jammer.
	if r.LearnedKbs < r.OracleKbs*0.8 {
		t.Fatalf("learned map recovers only %.1f%% of oracle goodput: %+v",
			r.LearnedKbs/r.OracleKbs*100, r)
	}
	if r.LearnedN >= 79 {
		t.Fatalf("learned map never narrowed: %+v", r)
	}
	if !strings.Contains(AdaptiveAFHTable(0.9, rows).String(), "learned_vs_oracle") {
		t.Fatal("table broken")
	}
}

// TestCoexSweepsDeterministicAcrossWorkers pins the runner contract for
// the coexistence sweeps: serial and N-worker schedules must render
// byte-identical tables.
func TestCoexSweepsDeterministicAcrossWorkers(t *testing.T) {
	render := func(cfg runner.Config) string {
		cs := SharedEther.Sweep([]int{1, 2, 3}, 2000, 2, 29, cfg)
		af := AdaptiveAFH([]int{11, 23}, 0.9, 1000, 2000, 31, cfg)
		return SharedEther.Table(cs).String() + AdaptiveAFHTable(0.9, af).CSV()
	}

	want := render(runner.Config{Workers: runner.Serial})
	for _, workers := range []int{1, 4} {
		if got := render(runner.Config{Workers: workers}); got != want {
			t.Fatalf("coex tables diverged at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				workers, want, workers, got)
		}
	}
}

func TestCoexistenceAFHRecoversGoodput(t *testing.T) {
	rows := Coexistence([]float64{0, 0.9}, 4000, 11)
	clean, jammed := rows[0], rows[1]
	if clean.PlainKbs <= 0 {
		t.Fatal("no baseline goodput")
	}
	// Without interference AFH costs nothing (same capacity).
	if ratio := clean.AFHKbs / clean.PlainKbs; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("AFH on a clean channel changed goodput by %vx", ratio)
	}
	// A 90%-duty jammer over 23/79 channels costs classic hopping a
	// large fraction of its goodput; AFH avoids the band entirely.
	if jammed.PlainKbs >= clean.PlainKbs*0.85 {
		t.Fatalf("jammer had no effect: %v vs clean %v", jammed.PlainKbs, clean.PlainKbs)
	}
	if jammed.AFHKbs <= jammed.PlainKbs*1.1 {
		t.Fatalf("AFH did not help: %v vs plain %v", jammed.AFHKbs, jammed.PlainKbs)
	}
	if jammed.AFHKbs < clean.PlainKbs*0.9 {
		t.Fatalf("AFH should restore nearly full goodput: %v vs clean %v",
			jammed.AFHKbs, clean.PlainKbs)
	}
	if !strings.Contains(CoexistenceTable(rows).String(), "afh_gain") {
		t.Fatal("table broken")
	}
}
