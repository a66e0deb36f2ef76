package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/packet"
	"repro/internal/runner"
)

// Each benchmark regenerates one figure of the paper's evaluation with a
// statistically small but structurally complete run (the cmd/btexp
// binary runs the full-resolution versions). b.N scales repetitions, so
// -benchtime controls statistical depth; every iteration reports the
// headline scalar through b.ReportMetric for at-a-glance comparison
// with the paper.

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

// BenchmarkFig6InquiryVsBER: mean slots to complete inquiry across the
// paper's BER sweep (paper: ~1556 TS noiseless, nearly flat).
func BenchmarkFig6InquiryVsBER(b *testing.B) {
	bers := []experiments.BERPoint{{Label: "1/100", Value: 0.01}, {Label: "1/30", Value: 1.0 / 30}}
	var mean float64
	for i := 0; i < b.N; i++ {
		rows := experiments.InquirySweep(bers, 4)
		mean = rows[0].MeanTS
	}
	b.ReportMetric(mean, "TS@1/100")
}

// BenchmarkFig7PageVsBER: mean slots to complete page (paper: ~17 TS
// noiseless, rising with BER).
func BenchmarkFig7PageVsBER(b *testing.B) {
	bers := []experiments.BERPoint{{Label: "0", Value: 0}, {Label: "1/30", Value: 1.0 / 30}}
	var mean float64
	for i := 0; i < b.N; i++ {
		rows := experiments.PageSweep(bers, 4)
		mean = rows[0].MeanTS
	}
	b.ReportMetric(mean, "TS@clean")
}

// BenchmarkFig8CreationFailure: failure probability of both phases at
// the paper's worst BER (paper: page fails almost always at 1/30 and is
// the creation bottleneck).
func BenchmarkFig8CreationFailure(b *testing.B) {
	bers := []experiments.BERPoint{{Label: "1/30", Value: 1.0 / 30}}
	var pageFail float64
	for i := 0; i < b.N; i++ {
		inq := experiments.InquirySweep(bers, 4)
		page := experiments.PageSweep(bers, 4)
		_ = inq
		pageFail = page[0].FailRate
	}
	b.ReportMetric(pageFail, "pageFail@1/30")
}

// BenchmarkFig9SniffWaveform: two slaves in sniff mode with waveform
// tracing (paper Fig 9).
func BenchmarkFig9SniffWaveform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig9Waveforms(io.Discard, 20, 2, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10MasterActivity: master RF activity vs duty cycle
// (paper: linear, ~0.25-0.3% TX at 2% duty cycle, TX above RX).
func BenchmarkFig10MasterActivity(b *testing.B) {
	var tx float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig10MasterActivity([]float64{0.02}, 10000, uint64(i)+1)
		tx = rows[0].TxActivity
	}
	b.ReportMetric(tx*100, "%TX@2%duty")
}

// BenchmarkFig11SniffActivity: slave activity active vs sniff at
// Tsniff=100 (paper: ~30% saving).
func BenchmarkFig11SniffActivity(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig11SniffActivity([]int{100}, 100, 10000, uint64(i)+1)
		saving = 1 - rows[0].Sniff/rows[0].Active
	}
	b.ReportMetric(saving*100, "%saving@T100")
}

// BenchmarkFig12HoldActivity: slave activity active vs repeating hold at
// Thold=120, the paper's crossover point (hold ≈ active ≈ 2.6%).
func BenchmarkFig12HoldActivity(b *testing.B) {
	var hold, active float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12HoldActivity([]int{120}, 20000, uint64(i)+1)
		hold, active = rows[0].Hold, rows[0].Active
	}
	b.ReportMetric(hold*100, "%hold@T120")
	b.ReportMetric(active*100, "%active")
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationBackoffSpan(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationBackoff([]int{127, 1023}, 0.01, 3)
		mean = rows[0].MeanTS
	}
	b.ReportMetric(mean, "TS@span127")
}

func BenchmarkAblationNInquiry(b *testing.B) {
	var fail float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationNInquiry([]int{256}, 0.01, 3)
		fail = rows[0].FailRate
	}
	b.ReportMetric(fail, "fail@spec256")
}

func BenchmarkAblationCorrelator(b *testing.B) {
	var fail float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationCorrelator([]int{1}, 1.0/30, 3)
		fail = rows[0].FailRate
	}
	b.ReportMetric(fail, "fail@th1")
}

// BenchmarkAblationPacketTypes: DM vs DH goodput under noise (the
// packet-choice trade-off the paper's introduction motivates).
func BenchmarkAblationPacketTypes(b *testing.B) {
	types := []packet.Type{packet.TypeDM1, packet.TypeDH5}
	bers := []experiments.BERPoint{{Label: "1/300", Value: 1.0 / 300}}
	var dm1, dh5 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.PacketTypeThroughput(types, bers, 3000, uint64(i)+1)
		dm1, dh5 = rows[0].GoodputKbs, rows[1].GoodputKbs
	}
	b.ReportMetric(dm1, "DM1_kbps")
	b.ReportMetric(dh5, "DH5_kbps")
}

// BenchmarkVoiceQuality: SCO frame quality per HV type at BER 1/200.
func BenchmarkVoiceQuality(b *testing.B) {
	types := []packet.Type{packet.TypeHV1, packet.TypeHV3}
	bers := []experiments.BERPoint{{Label: "1/200", Value: 1.0 / 200}}
	var hv1, hv3 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.VoiceQuality(types, bers, 3000, uint64(i)+1)
		hv1, hv3 = rows[0].BitPerfect, rows[1].BitPerfect
	}
	b.ReportMetric(hv1, "HV1_perfect")
	b.ReportMetric(hv3, "HV3_perfect")
}

// BenchmarkCoexistenceAFH: goodput recovery via adaptive frequency
// hopping under an 802.11-style interferer.
func BenchmarkCoexistenceAFH(b *testing.B) {
	var plain, afh float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Coexistence([]float64{0.9}, 6000, uint64(i)+1)
		plain, afh = rows[0].PlainKbs, rows[0].AFHKbs
	}
	b.ReportMetric(plain, "plain_kbps")
	b.ReportMetric(afh, "afh_kbps")
}

// BenchmarkMultiPiconetInterference: per-link goodput with co-located
// piconets (FHSS collision resilience).
func BenchmarkMultiPiconetInterference(b *testing.B) {
	var perLink float64
	for i := 0; i < b.N; i++ {
		rows := experiments.MultiPiconet([]int{3}, 6000, uint64(i)+1)
		perLink = rows[0].PerLinkKbs
	}
	b.ReportMetric(perLink, "kbps@3piconets")
}

// BenchmarkRunnerReplicasPerSec is the runner-level smoke benchmark: a
// Fig-6-class inquiry sweep (2 BER points × 16 seeds) through the
// worker pool at 1, 2 and 4 workers, reporting replicas/sec. The tables
// are byte-identical at every pool width (TestRunnerDeterminism); only
// the wall clock changes, so the replicas/s ratio between the sub-
// benchmarks is the parallel speedup on this machine.
func BenchmarkRunnerReplicasPerSec(b *testing.B) {
	bers := []experiments.BERPoint{{Label: "1/100", Value: 0.01}, {Label: "1/30", Value: 1.0 / 30}}
	const seeds = 16
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runner.SetDefaultWorkers(workers)
			defer runner.SetDefaultWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				experiments.InquirySweep(bers, seeds)
			}
			replicas := float64(len(bers) * seeds * b.N)
			b.ReportMetric(replicas/b.Elapsed().Seconds(), "replicas/s")
		})
	}
}

// BenchmarkRunnerSerialBaseline is the same sweep with no pool at all —
// the reference point for the pool's scheduling overhead.
func BenchmarkRunnerSerialBaseline(b *testing.B) {
	bers := []experiments.BERPoint{{Label: "1/100", Value: 0.01}, {Label: "1/30", Value: 1.0 / 30}}
	const seeds = 16
	runner.SetDefaultWorkers(runner.Serial)
	defer runner.SetDefaultWorkers(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.InquirySweep(bers, seeds)
	}
	replicas := float64(len(bers) * seeds * b.N)
	b.ReportMetric(replicas/b.Elapsed().Seconds(), "replicas/s")
}

// BenchmarkScatternetForwarding exercises the whole scatternet
// pipeline — chain build, bridge paging, presence negotiation, the
// membership scheduler and the L2CAP store-and-forward relay —
// reporting end-to-end goodput through one bridge at 80% presence duty.
func BenchmarkScatternetForwarding(b *testing.B) {
	var kbps float64
	for i := 0; i < b.N; i++ {
		rows := experiments.ScatternetSweep([]float64{0.8}, 6000, 1, uint64(i)+1)
		kbps = rows[0].GoodputKbps
	}
	b.ReportMetric(kbps, "kbps@duty0.8")
}
