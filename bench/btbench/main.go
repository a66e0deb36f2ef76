// Command btbench is the repository's end-to-end and per-layer
// benchmark. It measures four workloads — piconet creation under noise,
// low-power piconets, a dense office floor and the simulation service
// under two concurrent clients — and prints every metric with its unit,
// then one JSON object as the last line of standard output.
//
//	bash bench/btbench/run.sh --workload office --seed 3 --seconds 20 --trace 0
//	bash bench/btbench/run.sh --runs 10 --workload creation
//
// Each run re-executes this binary: first several times to time the
// workload's set-up (setup_s), then once to measure it, so every
// workload gets its own process and its own peak RSS. See README.md for
// the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads in run order.
var workloads = []string{"creation", "powersave", "office", "service"}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are reported by untraced runs; every workload reports all.
var endToEnd = []metricDef{
	{"op_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are reported by traced runs; every workload reports all.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"runtime.alloc_mb_per_op", "MB"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.max_rss_mb", "MB"},
		{"pool.busy_ms_p50", "ms"},
		{"pool.busy_ms_p90", "ms"},
		{"pool.idle_frac", "frac"},
		{"core.build_us", "us"},
		{"core.run_ns_per_slot", "ns"},
		{"channel.tx_per_slot", "1/slot"},
		{"channel.deliveries_per_tx", "1/tx"},
		{"netspec.snapshot_us", "us"},
		{"netspec.encode_us", "us"},
		{"netspec.decode_us", "us"},
		{"netspec.restore_us", "us"},
		{"netspec.checkpoint_kb", "KB"},
		{"simd.submit_ms", "ms"},
		{"simd.result_ms", "ms"},
		{"simd.result_kb", "KB"},
	}
	for _, t := range packetTypes {
		defs = append(defs,
			metricDef{"packet.assemble_ns." + t, "ns"},
			metricDef{"packet.parse_ns." + t, "ns"},
			metricDef{"packet.assemble_allocs." + t, "count"},
			metricDef{"packet.parse_allocs." + t, "count"})
	}
	return append(defs,
		metricDef{"hop.basic_ns", "ns"},
		metricDef{"hop.page_ns", "ns"},
		metricDef{"hop.scan_ns", "ns"},
		metricDef{"channel.transmit_ns.global2", "ns"},
		metricDef{"channel.transmit_ns.spatial32", "ns"},
		metricDef{"sim.timer_ns", "ns"},
		metricDef{"packet.share_est", "frac"},
		metricDef{"channel.share_est", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

// setupStarts is how many set-up probes one run times; setup_s is
// their median.
const setupStarts = 11

// childGrace bounds a measuring process beyond its measured seconds.
const childGrace = 120 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (default: all, one after another)")
	seed := flag.Uint64("seed", 1, "seed every workload input derives from")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	traceOn := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "where a traced run writes its spans as JSON lines (default .bench_build/btbench-<workload>-trace.jsonl)")
	runs := flag.Int("runs", 0, "repeatability mode: run each workload this many times, seeds seed, seed+1, ..., and print medians, quartiles and spreads")
	child := flag.Bool("child", false, "internal: measure one workload in this process")
	ready := flag.Bool("ready", false, "internal: perform one workload's set-up, print ready and exit")
	flag.Parse()

	list := workloads
	if *workload != "" {
		if !known(*workload) {
			fmt.Fprintf(os.Stderr, "btbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloads, ", "))
			return 2
		}
		list = []string{*workload}
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintf(os.Stderr, "btbench: -trace takes 0 or 1\n")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceOn == 1,
		traceOut: *traceOut,
	}
	switch {
	case *ready:
		return readyMain(*workload)
	case *child:
		return childMain(cfg)
	case *runs > 0:
		return repeatability(list, cfg, *runs)
	}

	fmt.Fprintf(os.Stderr, "btbench: GOMAXPROCS=%d nproc=%d workers=%d seed=%d seconds=%g trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.seconds.Seconds(), *traceOn)
	status := 0
	for _, w := range list {
		c := cfg
		c.workload = w
		rep, err := runOnce(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "btbench: %s: %v\n", w, err)
			return 1
		}
		printReport(w, rep)
		b, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "btbench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", b)
		if !rep.Correct {
			status = 1
		}
	}
	return status
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// runOnce times the workload's set-up, then measures it in a child
// process, and assembles the reported metrics.
func runOnce(cfg config) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	values := make(map[string]float64)
	defs := perLayer
	if !cfg.trace {
		defs = endToEnd
		var setup []float64
		for i := 0; i < setupStarts; i++ {
			d, err := timeReady(exe, cfg.workload)
			if err != nil {
				return nil, err
			}
			setup = append(setup, d.Seconds())
		}
		values["setup_s"] = median(setup)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+childGrace)
	defer cancel()
	traceOut := cfg.traceOut
	if cfg.trace && traceOut == "" {
		traceOut = ".bench_build/btbench-" + cfg.workload + "-trace.jsonl"
	}
	args := []string{"-child", "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"-trace-out", traceOut}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "btbench: %s (seed %d, trace %v)\n", cfg.workload, cfg.seed, cfg.trace)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("measuring process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("reading the measuring process's outcome: %w", err)
	}
	for k, v := range out.Metrics {
		values[k] = v
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		values["runtime.max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	rep := &report{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, p := range out.Problems {
		fmt.Fprintf(os.Stderr, "btbench: %s: FAILED: %s\n", cfg.workload, p)
	}
	fmt.Fprintf(os.Stderr, "btbench: %s canary %s, outputs %s\n", cfg.workload, short(out.Canary), short(out.Digest))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return rep, nil
}

func short(digest string) string {
	if len(digest) > 16 {
		return digest[:16]
	}
	return digest
}

// timeReady starts a set-up probe and times it from exec to its
// "ready" line.
func timeReady(exe, workload string) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-ready", "-workload", workload)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(pipe).ReadString('\n')
	d := time.Since(t0)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("set-up probe printed %q (%v)", line, readErr)
	}
	return d, nil
}

func printReport(workload string, rep *report) {
	fmt.Fprintf(os.Stderr, "btbench: %s: correct=%v attempted=%d failed=%d\n", workload, rep.Correct, rep.Attempted, rep.Failed)
	defs := endToEnd
	if _, ok := rep.Metrics["op_ms"]; !ok {
		defs = perLayer
	}
	for _, d := range defs {
		m := rep.Metrics[d.name]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

// repeatability runs every workload n times on consecutive seeds and
// prints, per end-to-end metric, the median and quartiles, the
// inter-quartile spread as a share of the median, and the medians of
// the even and the odd runs — two interleaved sets — with their
// difference. A spread or a difference beyond the metric's bound in
// BENCHMARK.json is flagged; setup_s is exempt from the spread check.
func repeatability(list []string, cfg config, n int) int {
	bounds := readBounds("BENCHMARK.json")
	vals := make(map[string]map[string][]float64)
	status := 0
	for i := 0; i < n; i++ {
		for _, w := range list {
			c := cfg
			c.workload = w
			c.seed = cfg.seed + uint64(i)
			rep, err := runOnce(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "btbench: %s: %v\n", w, err)
				return 1
			}
			if !rep.Correct {
				status = 1
			}
			if vals[w] == nil {
				vals[w] = make(map[string][]float64)
			}
			for k, m := range rep.Metrics {
				vals[w][k] = append(vals[w][k], m.Value)
			}
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("| workload | metric | median | q1 | q3 | spread | set A | set B | A→B | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range list {
		for _, d := range defs {
			xs := vals[w][d.name]
			var a, b []float64
			for i, x := range xs {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			q1, q2, q3 := quartiles(xs)
			sp := (q3 - q1) / q2
			diff := median(b)/median(a) - 1
			flag := ""
			if bound, ok := bounds[d.name]; ok {
				if d.name != "setup_s" && sp > bound {
					flag += " spread>bound"
				}
				if math.Abs(diff) > bound {
					flag += " A≠B"
				}
				if flag == "" && d.name != "setup_s" && sp > bound/3 {
					flag = " spread>bound/3"
				}
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.1f%% | %.4g | %.4g | %+.1f%% | %s |%s |\n",
				w, d.name, q2, q1, q3, 100*sp, median(a), median(b), 100*diff, boundText(bounds, d.name), flag)
		}
	}
	return status
}

func boundText(bounds map[string]float64, name string) string {
	if b, ok := bounds[name]; ok {
		return fmt.Sprintf("%.0f%%", 100*b)
	}
	return "-"
}

// readBounds reads the end-to-end bounds from BENCHMARK.json; a missing
// or unreadable file yields no bounds.
func readBounds(path string) map[string]float64 {
	out := make(map[string]float64)
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &doc) != nil {
		return out
	}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
