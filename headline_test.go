package repro_test

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/golden"
	"repro/internal/packet"
)

// metric is one b.ReportMetric column: a seed-determined figure result,
// not a timing.
type metric struct {
	unit  string
	value float64
}

// headline is one benchmark's parameter set, written once and read both
// by the benchmark of the same name (bench_test.go) and by
// TestHeadlineMetricsGolden. run performs one iteration; the benchmark
// passes seed = iteration + 1, the golden pins iteration 0.
type headline struct {
	name string // benchmark name without the "Benchmark" prefix
	run  func(seed uint64) []metric
}

var headlines = []headline{
	// Mean slots to complete inquiry (paper: ~1556 TS noiseless, nearly
	// flat across BER).
	{"Fig6InquiryVsBER", func(uint64) []metric {
		rows := experiments.InquirySweep([]experiments.BERPoint{{Label: "1/100", Value: 0.01}, {Label: "1/30", Value: 1.0 / 30}}, 4)
		return []metric{{"TS@1/100", rows[0].MeanTS}}
	}},
	// Mean slots to complete page (paper: ~17 TS noiseless, rising with
	// BER).
	{"Fig7PageVsBER", func(uint64) []metric {
		rows := experiments.PageSweep([]experiments.BERPoint{{Label: "0", Value: 0}, {Label: "1/30", Value: 1.0 / 30}}, 4)
		return []metric{{"TS@clean", rows[0].MeanTS}}
	}},
	// Page failure at the paper's worst BER (paper: page fails almost
	// always at 1/30 and is the creation bottleneck).
	{"Fig8CreationFailure", func(uint64) []metric {
		rows := experiments.PageSweep([]experiments.BERPoint{{Label: "1/30", Value: 1.0 / 30}}, 4)
		return []metric{{"pageFail@1/30", rows[0].FailRate}}
	}},
	// Master RF activity at 2% duty (paper: linear, ~0.25-0.3% TX, TX
	// above RX).
	{"Fig10MasterActivity", func(seed uint64) []metric {
		rows := experiments.Fig10MasterActivity([]float64{0.02}, 10000, seed)
		return []metric{{"%TX@2%duty", rows[0].TxActivity * 100}}
	}},
	// Slave activity saving of sniff over active at Tsniff=100 (paper:
	// ~30%).
	{"Fig11SniffActivity", func(seed uint64) []metric {
		rows := experiments.Fig11SniffActivity([]int{100}, 100, 10000, seed)
		return []metric{{"%saving@T100", (1 - rows[0].Sniff/rows[0].Active) * 100}}
	}},
	// Slave activity under repeating hold at Thold=120, the paper's
	// crossover point (hold ≈ active ≈ 2.6%).
	{"Fig12HoldActivity", func(seed uint64) []metric {
		rows := experiments.Fig12HoldActivity([]int{120}, 20000, seed)
		return []metric{{"%hold@T120", rows[0].Hold * 100}, {"%active", rows[0].Active * 100}}
	}},
	// The design-choice ablations of EXPERIMENTS.md "Beyond the paper's
	// figures".
	{"AblationBackoffSpan", func(uint64) []metric {
		rows := experiments.AblationBackoff([]int{127, 1023}, 0.01, 3)
		return []metric{{"TS@span127", rows[0].MeanTS}}
	}},
	{"AblationNInquiry", func(uint64) []metric {
		rows := experiments.AblationNInquiry([]int{256}, 0.01, 3)
		return []metric{{"fail@spec256", rows[0].FailRate}}
	}},
	{"AblationCorrelator", func(uint64) []metric {
		rows := experiments.AblationCorrelator([]int{1}, 1.0/30, 3)
		return []metric{{"fail@th1", rows[0].FailRate}}
	}},
	// DM vs DH goodput under noise (the packet-choice trade-off the
	// paper's introduction motivates).
	{"AblationPacketTypes", func(seed uint64) []metric {
		rows := experiments.PacketTypeThroughput([]packet.Type{packet.TypeDM1, packet.TypeDH5},
			[]experiments.BERPoint{{Label: "1/300", Value: 1.0 / 300}}, 3000, seed)
		return []metric{{"DM1_kbps", rows[0].GoodputKbs}, {"DH5_kbps", rows[1].GoodputKbs}}
	}},
	// SCO frame quality per HV type at BER 1/200.
	{"VoiceQuality", func(seed uint64) []metric {
		rows := experiments.VoiceQuality([]packet.Type{packet.TypeHV1, packet.TypeHV3},
			[]experiments.BERPoint{{Label: "1/200", Value: 1.0 / 200}}, 3000, seed)
		return []metric{{"HV1_perfect", rows[0].BitPerfect}, {"HV3_perfect", rows[1].BitPerfect}}
	}},
	// Goodput recovery via adaptive frequency hopping under an
	// 802.11-style interferer.
	{"CoexistenceAFH", func(seed uint64) []metric {
		rows := experiments.Coexistence([]float64{0.9}, 6000, seed)
		return []metric{{"plain_kbps", rows[0].PlainKbs}, {"afh_kbps", rows[0].AFHKbs}}
	}},
	// End-to-end goodput through one scatternet bridge at 80% presence
	// duty: chain build, bridge paging, presence negotiation, the
	// membership scheduler and the L2CAP store-and-forward relay.
	{"ScatternetForwarding", func(seed uint64) []metric {
		rows := experiments.ScatternetSweep([]float64{0.8}, 6000, 1, seed)
		return []metric{{"kbps@duty0.8", rows[0].GoodputKbps}}
	}},
}

// benchHeadline runs the headlines entry named after b for b.N
// iterations and reports the last iteration's metrics.
func benchHeadline(b *testing.B) {
	name := strings.TrimPrefix(b.Name(), "Benchmark")
	for _, h := range headlines {
		if h.name != name {
			continue
		}
		var ms []metric
		for i := 0; i < b.N; i++ {
			ms = h.run(uint64(i) + 1)
		}
		for _, m := range ms {
			b.ReportMetric(m.value, m.unit)
		}
		return
	}
	b.Fatalf("no headline entry named %q", name)
}

// TestHeadlineMetricsGolden pins every b.ReportMetric column of the
// headline benchmarks at iteration 0 (seed 1), at full float64
// precision, against testdata/headline.golden. Regenerate with
//
//	go test . -run TestHeadlineMetricsGolden -update
//
// and review the diff like any other code change.
func TestHeadlineMetricsGolden(t *testing.T) {
	var out strings.Builder
	for _, h := range headlines {
		for _, m := range h.run(1) {
			out.WriteString(h.name + " " + m.unit + " " + strconv.FormatFloat(m.value, 'g', -1, 64) + "\n")
		}
	}
	golden.Check(t, filepath.Join("testdata", "headline.golden"), out.String())
}
