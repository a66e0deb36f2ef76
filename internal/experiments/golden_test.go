package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/packet"
	"repro/internal/runner"
)

// renderAllFigures regenerates every figure in the evaluation section —
// the eleven tables plus the two VCD waveform figures (hashed) — at
// deliberately tiny parameters so the whole sweep fits in a test run,
// with every sweep under cfg. The output is one deterministic string:
// any change to simulator behaviour, sweep scheduling, table formatting
// or VCD emission shows up as a diff against testdata/figures.golden.
func renderAllFigures(cfg runner.Config) string {
	var out bytes.Buffer

	vcd := func(name string, emit func(w *bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			fmt.Fprintf(&out, "%s: ERROR %v\n", name, err)
			return
		}
		fmt.Fprintf(&out, "%s: sha256 %x (%d bytes)\n", name, sha256.Sum256(buf.Bytes()), buf.Len())
	}
	vcd("fig5.vcd", func(w *bytes.Buffer) error {
		_, err := Fig5Waveforms(w, 1)
		return err
	})
	vcd("fig9.vcd", func(w *bytes.Buffer) error {
		return Fig9Waveforms(w, 20, 2, 1)
	})

	bers := []BERPoint{{Label: "0", Value: 0}, {Label: "1/100", Value: 0.01}}
	inq := InquirySweep(bers, 4, cfg)
	page := PageSweep(bers, 4, cfg)
	out.WriteString(Fig6Table(inq).String())
	out.WriteString(Fig7Table(page).String())
	out.WriteString(Fig8Table(inq, page).String())

	out.WriteString(Fig10Table(Fig10MasterActivity([]float64{0, 0.01}, 2000, 1, cfg)).String())
	out.WriteString(Fig11Table(Fig11SniffActivity([]int{20, 100}, 100, 3000, 1, cfg)).String())
	out.WriteString(Fig12Table(Fig12HoldActivity([]int{50, 400}, 4000, 1, cfg)).String())

	out.WriteString(AblationTable("Ablation: inquiry-response backoff span (BER 1/100)", "backoff_max",
		AblationBackoff([]int{127, 1023}, 0.01, 2, cfg)).String())
	out.WriteString(AblationTable("Ablation: train repetitions NInquiry (BER 1/100, 1.28 s timeout)", "NInquiry",
		AblationNInquiry([]int{16, 256}, 0.01, 2, cfg)).String())
	out.WriteString(AblationTable("Ablation: correlator sync-error threshold (BER 1/30)", "threshold",
		AblationCorrelator([]int{1, 14}, 1.0/30, 2, cfg)).String())

	out.WriteString(VoiceTable(VoiceQuality(
		[]packet.Type{packet.TypeHV1, packet.TypeHV3}, bers, 2000, 1, cfg)).String())
	out.WriteString(ThroughputTable(PacketTypeThroughput(
		[]packet.Type{packet.TypeDM1, packet.TypeDH5}, bers, 2000, 1, cfg)).String())

	out.WriteString(CoexistenceTable(Coexistence([]float64{0, 1.0}, 2000, 1, cfg)).String())
	out.WriteString(SharedEther.Table(SharedEther.Sweep([]int{1, 4}, 2000, 2, 1, cfg)).String())
	out.WriteString(AdaptiveAFHTable(0.9, AdaptiveAFH([]int{7, 39}, 0.9, 500, 2000, 1, cfg)).String())
	out.WriteString(ScatternetTable(ScatternetSweep([]float64{0.2, 1.0}, 2000, 2, 1, cfg)).String())
	out.WriteString(OfficeFloor.Table(OfficeFloor.Sweep([]int{1, 8}, 2000, 2, 1, cfg)).String())

	return out.String()
}

// TestAllFiguresGolden pins the entire figure pipeline — every table
// and both waveform files — against a committed golden snapshot, and
// re-renders on a 4-worker pool to pin the scheduling-independence
// contract in the same breath. Regenerate with
//
//	go test ./internal/experiments -run TestAllFiguresGolden -update
//
// and review the diff like any other code change.
func TestAllFiguresGolden(t *testing.T) {
	serial := renderAllFigures(runner.Config{Workers: runner.Serial})

	golden.Check(t, filepath.Join("testdata", "figures.golden"), serial)

	if parallel := renderAllFigures(runner.Config{Workers: 4}); parallel != serial {
		t.Errorf("figures depend on the worker schedule:\n--- serial ---\n%s\n--- 4 workers ---\n%s",
			serial, parallel)
	}
}
