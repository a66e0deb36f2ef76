// Command btexp regenerates the data behind every figure in the paper's
// evaluation section (Figs 5-12), plus the design-choice ablations, and
// prints them as aligned tables or CSV.
//
// Sweeps fan their (parameter, seed) replicas out across a worker pool
// (internal/runner); -workers sets the pool size and the tables are
// byte-identical at any setting.
//
// Usage:
//
//	btexp -fig all            # every figure, default seeds
//	btexp -fig 6 -seeds 100   # just Fig 6, more statistics
//	btexp -fig 6 -workers 8   # same table, 8-way parallel
//	btexp -fig 5 -out fig5.vcd
//	btexp -fig ablations
//	btexp -fig throughput -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/experiments"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/stats"
)

// stderrIsTerminal reports whether stderr is a character device (a
// terminal rather than a pipe or file).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5..12, all, ablations, throughput, voice, coexistence, coex, afh-adaptive, scatternet, density, fork")
	seeds := flag.Int("seeds", 40, "simulation repetitions per sweep point (Figs 6-8)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	out := flag.String("out", "", "output file for waveform figures (5, 9); default fig<N>.vcd")
	seed := flag.Uint64("seed", 1, "base random seed")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, -1 = serial)")
	progress := flag.Bool("progress", true, "stream sweep progress to stderr")
	flag.Parse()

	// Stream progress only on a terminal unless -progress was given
	// explicitly, so piped stderr stays free of carriage returns.
	explicitProgress := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "progress" {
			explicitProgress = true
		}
	})
	runCfg := runner.Config{Workers: *workers}
	if *progress && (explicitProgress || stderrIsTerminal()) {
		var mu sync.Mutex
		last := make(map[string]int)
		runCfg.Progress = func(name string, done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done <= last[name] {
				return // stale report from a straggling worker
			}
			last[name] = done
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials", name, done, total)
			if done == total {
				fmt.Fprint(os.Stderr, "\r\033[K")
			}
		}
	}

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	var inq, page []experiments.PhaseResult
	needInq := func() []experiments.PhaseResult {
		if inq == nil {
			inq = experiments.InquirySweep(experiments.PaperBERs(), *seeds, runCfg)
		}
		return inq
	}
	needPage := func() []experiments.PhaseResult {
		if page == nil {
			page = experiments.PageSweep(experiments.PaperBERs(), *seeds, runCfg)
		}
		return page
	}

	runFig := func(name string) error {
		switch name {
		case "5":
			path := *out
			if path == "" {
				path = "fig5.vcd"
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			links, err := experiments.Fig5Waveforms(f, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("Fig 5: piconet creation waveforms (master + %d slaves) written to %s\n", links, path)
		case "6":
			emit(experiments.Fig6Table(needInq()))
		case "7":
			emit(experiments.Fig7Table(needPage()))
		case "8":
			emit(experiments.Fig8Table(needInq(), needPage()))
		case "9":
			path := *out
			if path == "" {
				path = "fig9.vcd"
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := experiments.Fig9Waveforms(f, 20, 2, *seed); err != nil {
				return err
			}
			fmt.Printf("Fig 9: sniff-mode waveforms (2 slaves sniffing) written to %s\n", path)
		case "10":
			rows := experiments.Fig10MasterActivity(
				[]float64{0, 0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02}, 40000, *seed, runCfg)
			emit(experiments.Fig10Table(rows))
		case "11":
			rows := experiments.Fig11SniffActivity([]int{20, 30, 40, 60, 80, 100}, 100, 40000, *seed, runCfg)
			emit(experiments.Fig11Table(rows))
		case "12":
			rows := experiments.Fig12HoldActivity(
				[]int{50, 100, 120, 150, 200, 400, 600, 800, 1000}, 60000, *seed, runCfg)
			emit(experiments.Fig12Table(rows))
		case "ablations":
			emit(experiments.AblationTable(
				"Ablation: inquiry-response backoff span (BER 1/100)", "backoff_max",
				experiments.AblationBackoff([]int{127, 255, 511, 1023, 2047}, 0.01, *seeds, runCfg)))
			emit(experiments.AblationTable(
				"Ablation: train repetitions NInquiry (BER 1/100, 1.28 s timeout)", "NInquiry",
				experiments.AblationNInquiry([]int{16, 32, 64, 128, 256}, 0.01, *seeds, runCfg)))
			emit(experiments.AblationTable(
				"Ablation: correlator sync-error threshold (BER 1/30)", "threshold",
				experiments.AblationCorrelator([]int{1, 3, 7, 10, 14}, 1.0/30, *seeds, runCfg)))
		case "voice":
			rows := experiments.VoiceQuality(
				[]packet.Type{packet.TypeHV1, packet.TypeHV2, packet.TypeHV3},
				[]experiments.BERPoint{{Label: "0", Value: 0}, {Label: "1/500", Value: 1.0 / 500},
					{Label: "1/200", Value: 1.0 / 200}, {Label: "1/100", Value: 0.01}},
				10000, *seed, runCfg)
			emit(experiments.VoiceTable(rows))
		case "coexistence":
			rows := experiments.Coexistence([]float64{0, 0.25, 0.5, 0.75, 1.0}, 20000, *seed, runCfg)
			emit(experiments.CoexistenceTable(rows))
		case "coex":
			rows := experiments.SharedEther.Sweep([]int{1, 2, 3, 4, 5, 6, 7, 8}, 20000, 4, *seed, runCfg)
			emit(experiments.SharedEther.Table(rows))
		case "afh-adaptive":
			rows := experiments.AdaptiveAFH([]int{7, 15, 23, 31, 39}, 0.9, 2000, 20000, *seed, runCfg)
			emit(experiments.AdaptiveAFHTable(0.9, rows))
		case "scatternet":
			rows := experiments.ScatternetSweep([]float64{0.2, 0.4, 0.6, 0.8, 1.0}, 20000, 4, *seed, runCfg)
			emit(experiments.ScatternetTable(rows))
		case "density":
			rows := experiments.OfficeFloor.Sweep([]int{1, 2, 4, 8, 16, 32, 48}, 20000, 4, *seed, runCfg)
			emit(experiments.OfficeFloor.Table(rows))
		case "fork":
			rows := experiments.ForkEnsemble([]int{2, 4}, 20000, 4000, 4, *seed, runCfg)
			emit(experiments.ForkTable(rows))
		case "throughput":
			rows := experiments.PacketTypeThroughput(
				[]packet.Type{packet.TypeDM1, packet.TypeDH1, packet.TypeDM3,
					packet.TypeDH3, packet.TypeDM5, packet.TypeDH5},
				[]experiments.BERPoint{{Label: "0", Value: 0}, {Label: "1/1000", Value: 0.001},
					{Label: "1/300", Value: 1.0 / 300}, {Label: "1/100", Value: 0.01}},
				8000, *seed, runCfg)
			emit(experiments.ThroughputTable(rows))
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		return nil
	}

	var names []string
	if *fig == "all" {
		names = []string{"5", "6", "7", "8", "9", "10", "11", "12"}
	} else {
		names = []string{*fig}
	}
	for _, n := range names {
		if err := runFig(n); err != nil {
			fmt.Fprintf(os.Stderr, "btexp: %v\n", err)
			os.Exit(1)
		}
	}
}
