package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/netspec"
)

//go:embed specs/*.json
var specFiles embed.FS

//go:embed digests.json
var pinnedDigests []byte

// config is one workload run's inputs.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceOut string
	quick    bool
}

// run is the state of one workload run inside the measuring process.
type run struct {
	cfg     config
	tr      *tracer // nil when untraced
	workers int
	log     io.Writer

	attempted int
	failed    int
	problems  []string
	canary    string
	digest    string
	metrics   map[string]float64
	stats     []stat
}

// outcome is what the measuring process hands back to its parent.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Canary    string             `json:"canary"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "  "+format+"\n", args...)
}

// fail records one failed operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts a replica that returned an error as failed.
func (r *run) check(rep replica) {
	if rep.err != nil {
		r.fail("replica point %d seed %d: %v", rep.point, rep.seed, rep.err)
	}
}

// checkCanary compares the canary digest with the pinned one.
func (r *run) checkCanary(got string) {
	r.canary = got
	var pins map[string]string
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		r.fail("reading pinned digests: %v", err)
		return
	}
	if want := pins[r.cfg.workload]; got != want {
		r.fail("canary digest %s, pinned %q: the simulated outputs changed", got, want)
	}
}

// environment holds what a workload sets up before it measures: the
// decoded specs and, for the service workload, a running server.
type environment struct {
	spec netspec.Spec
	srv  *server
}

func (e *environment) close() {
	if e.srv != nil {
		e.srv.close()
	}
}

// specFor names the embedded spec each workload decodes.
var specFor = map[string]string{
	"powersave": "specs/powersave.json",
	"office":    "specs/office.json",
	"service":   "specs/service.json",
}

// setUp performs a workload's set-up: decoding and validating its spec
// and starting the service. setup_s times exactly this, plus process
// start.
func setUp(workload string, workers int) (*environment, error) {
	env := &environment{}
	if path, ok := specFor[workload]; ok {
		b, err := specFiles.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if env.spec, err = decodeSpec(b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	if workload == "service" {
		srv, err := startServer(workers)
		if err != nil {
			return nil, err
		}
		env.srv = srv
	}
	return env, nil
}

func decodeSpec(b []byte) (netspec.Spec, error) {
	var spec netspec.Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	return spec, spec.Validate()
}

// measure runs one workload in this process and returns its outcome.
func measure(cfg config, log io.Writer) (*outcome, error) {
	workers := runtime.GOMAXPROCS(0)
	env, err := setUp(cfg.workload, workers)
	if err != nil {
		return nil, err
	}
	defer env.close()
	r := &run{cfg: cfg, workers: workers, log: log, metrics: make(map[string]float64)}
	if cfg.trace {
		r.tr = newTracer()
	}
	switch cfg.workload {
	case "creation":
		r.runSim(creationWorkload())
	case "powersave":
		r.runSim(powersaveWorkload(env.spec))
	case "office":
		r.runSim(officeWorkload(env.spec))
	case "service":
		r.runService(env.srv, env.spec)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if r.tr != nil {
		spans := r.tr.finished()
		fmt.Fprintf(log, "  self time by span (traced blocks/jobs only):\n")
		printSelfTimes(log, spans)
		if cfg.traceOut != "" {
			if err := writeSpans(cfg.traceOut, spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			r.logf("%d spans written to %s", len(spans), cfg.traceOut)
		}
		if len(r.stats) > 0 {
			fmt.Fprintf(log, "  simulated statistics:\n")
			for _, s := range r.stats {
				paper := ""
				if s.paper != "" {
					paper = "  (paper " + s.paper + ")"
				}
				fmt.Fprintf(log, "    %-34s %12.4f%s\n", s.name, s.value, paper)
			}
		}
	}
	return &outcome{
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
		Canary: r.canary, Digest: r.digest, Metrics: r.metrics,
	}, nil
}

// rtDelta is the runtime's work between two readings.
type rtDelta struct {
	allocMB float64 // bytes allocated on the heap, in MiB
	gcFrac  float64 // GC CPU time over all CPU time
}

type rtReading struct{ alloc, gcCPU, allCPU float64 }

func readRuntime() rtReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtReading{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (r rtReading) since(before rtReading) rtDelta {
	return rtDelta{
		allocMB: (r.alloc - before.alloc) / (1 << 20),
		gcFrac:  (r.gcCPU - before.gcCPU) / (r.allCPU - before.allCPU),
	}
}

// childMain is the measuring process: it runs one workload and prints
// its outcome as the last line of standard output.
func childMain(cfg config) int {
	out, err := measure(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

// readyMain is a set-up probe: it performs the workload's set-up,
// prints "ready" and exits.
func readyMain(workload string) int {
	env, err := setUp(workload, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "btbench: %s set-up: %v\n", workload, err)
		return 1
	}
	fmt.Println("ready")
	env.close()
	return 0
}
