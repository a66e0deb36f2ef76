package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// Each benchmark regenerates one figure of the paper's evaluation with a
// statistically small but structurally complete run (the cmd/btexp
// binary runs the full-resolution versions). b.N scales repetitions, so
// -benchtime controls statistical depth. The figure benchmarks report
// their headline scalars through b.ReportMetric for at-a-glance
// comparison with the paper; their parameter sets live in the headlines
// table (headline_test.go), which TestHeadlineMetricsGolden pins.

// BenchmarkFig5PiconetCreationWaveform: creation of a master + 3 slave
// piconet with full waveform tracing (paper Fig 5).
func BenchmarkFig5PiconetCreationWaveform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		links, err := experiments.Fig5Waveforms(io.Discard, uint64(i)+1)
		if err != nil || links != 3 {
			b.Fatalf("creation failed: links=%d err=%v", links, err)
		}
	}
}

func BenchmarkFig6InquiryVsBER(b *testing.B)    { benchHeadline(b) }
func BenchmarkFig7PageVsBER(b *testing.B)       { benchHeadline(b) }
func BenchmarkFig8CreationFailure(b *testing.B) { benchHeadline(b) }

// BenchmarkFig9SniffWaveform: two slaves in sniff mode with waveform
// tracing (paper Fig 9).
func BenchmarkFig9SniffWaveform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig9Waveforms(io.Discard, 20, 2, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10MasterActivity(b *testing.B)  { benchHeadline(b) }
func BenchmarkFig11SniffActivity(b *testing.B)   { benchHeadline(b) }
func BenchmarkFig12HoldActivity(b *testing.B)    { benchHeadline(b) }
func BenchmarkAblationBackoffSpan(b *testing.B)  { benchHeadline(b) }
func BenchmarkAblationNInquiry(b *testing.B)     { benchHeadline(b) }
func BenchmarkAblationCorrelator(b *testing.B)   { benchHeadline(b) }
func BenchmarkAblationPacketTypes(b *testing.B)  { benchHeadline(b) }
func BenchmarkVoiceQuality(b *testing.B)         { benchHeadline(b) }
func BenchmarkCoexistenceAFH(b *testing.B)       { benchHeadline(b) }
func BenchmarkScatternetForwarding(b *testing.B) { benchHeadline(b) }

// runnerSweepBERs and runnerSweepSeeds are the Fig-6-class inquiry sweep
// (2 BER points × 16 seeds) the runner benchmarks push through the pool.
var runnerSweepBERs = []experiments.BERPoint{{Label: "1/100", Value: 0.01}, {Label: "1/30", Value: 1.0 / 30}}

const runnerSweepSeeds = 16

// benchRunnerSweep runs the runner sweep b.N times under cfg and
// reports replicas/sec.
func benchRunnerSweep(b *testing.B, cfg runner.Config) {
	for i := 0; i < b.N; i++ {
		experiments.InquirySweep(runnerSweepBERs, runnerSweepSeeds, cfg)
	}
	replicas := float64(len(runnerSweepBERs) * runnerSweepSeeds * b.N)
	b.ReportMetric(replicas/b.Elapsed().Seconds(), "replicas/s")
}

// BenchmarkRunnerReplicasPerSec is the runner-level smoke benchmark:
// the runner sweep through the worker pool at 1, 2 and 4 workers. The
// tables are byte-identical at every pool width (TestRunnerDeterminism);
// only the wall clock changes, so the replicas/s ratio between the sub-
// benchmarks is the parallel speedup on this machine.
func BenchmarkRunnerReplicasPerSec(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchRunnerSweep(b, runner.Config{Workers: workers})
		})
	}
}

// BenchmarkRunnerSerialBaseline is the same sweep with no pool at all —
// the reference point for the pool's scheduling overhead.
func BenchmarkRunnerSerialBaseline(b *testing.B) {
	benchRunnerSweep(b, runner.Config{Workers: runner.Serial})
}
