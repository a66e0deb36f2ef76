package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/simd"
)

// simWorkload is a closed-loop replica sweep: blocks of fixed work run
// through runner.Sweep on the full pool until the run's time is up.
type simWorkload struct {
	points    int // parameter points per block
	per       int // replicas per point in a timed block
	canaryPer int // replicas per point in the canary block
	quickPer  int // replicas per point in a -quick block
	// trial runs one replica. parent is the replica's trace span (the
	// zero openSpan when untraced).
	trial func(parent openSpan, point int, seed uint64) replica
	// model summarises the simulated statistics of the traced replicas.
	model func(reps []replica) []stat
	// pktMix and medium select the microprobes the share estimates use:
	// the packet types that dominate the workload's air traffic and the
	// medium it transmits on.
	pktMix []string
	medium string
}

// replica is one trial's output.
type replica struct {
	point int
	seed  uint64
	out   []byte // canonical encoding of the simulated output
	err   error
	dur   time.Duration
	// Read from traced trials only.
	runSlots  uint64 // slots advanced inside core.run
	allSlots  uint64 // every simulated slot, construction included
	tx, deliv int    // channel transmissions and deliveries
	obs       []float64
}

// stat is one line of a run's simulated statistics.
type stat struct {
	name  string
	value float64
	paper string // the paper's value, where it reports one
}

// canarySeed is the fixed input of every canary block: the canary
// outputs do not depend on -seed, so their digests can be pinned.
const canarySeed = 1

// minBlocks is the fewest timed blocks a run measures, however short.
const minBlocks = 3

// digestBlocks is how many leading timed blocks the printed output
// digest covers, so runs of one seed print the same digest even when
// their block counts differ.
const digestBlocks = 2

// recheckEvery selects the replicas re-run serially after the timed
// phase: every recheckEvery-th one.
const recheckEvery = 16

// fastest is the smallest of a run's per-block times. Other tenants of
// the host only ever add time to a block, and on a shared machine their
// load drifts by tens of percent over minutes; the fastest block is the
// steadiest estimate of the program's own cost that one run gives.
func fastest(perBlock []float64) float64 { return percentile(perBlock, 0) }

// mix derives a replica seed from the run seed and the replica's
// coordinates (splitmix64 finalisation per step).
func mix(vals ...uint64) uint64 {
	var h uint64
	for _, v := range vals {
		h += v + 0x9E3779B97F4A7C15
		h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
		h = (h ^ h>>27) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// blockResult is one block of replicas with its wall time.
type blockResult struct {
	reps []replica
	wall time.Duration
}

// runBlock runs one block: points × per replicas whose seeds derive from
// (base, index). tr may be nil for an untraced block.
func (w *simWorkload) runBlock(base uint64, index, per, workers int, tr *tracer) blockResult {
	idx := make([]int, w.points)
	for i := range idx {
		idx[i] = i
	}
	blk := tr.start("runner.block", 0, int64(index))
	t0 := time.Now()
	rows := runner.Sweep[int, replica]{
		Name:     "btbench",
		Points:   idx,
		Replicas: per,
		Seed: func(point, rep int) uint64 {
			return mix(base, uint64(index), uint64(point), uint64(rep))
		},
		Trial: func(seed uint64, point int) replica {
			sp := blk.child("runner.trial")
			sp.Op = int64(seed)
			st := time.Now()
			r := w.trial(sp, point, seed)
			r.dur = time.Since(st)
			sp.end()
			r.point, r.seed = point, seed
			return r
		},
	}.Run(runner.Config{Workers: workers})
	wall := time.Since(t0)
	blk.end()
	var out blockResult
	out.wall = wall
	for _, row := range rows {
		out.reps = append(out.reps, row...)
	}
	return out
}

// runSim runs a simulation workload: the canary block, timed blocks
// until the deadline, then the serial re-check.
func (r *run) runSim(w *simWorkload) {
	per := w.per
	if r.cfg.quick {
		per = w.quickPer
	}
	canary := w.runBlock(canarySeed, 0, w.canaryPer, r.workers, nil)
	h := sha256.New()
	for _, rep := range canary.reps {
		r.attempted++
		r.check(rep)
		h.Write(rep.out)
	}
	r.checkCanary(hex.EncodeToString(h.Sum(nil)))

	digest := sha256.New()
	var (
		rechecks          []replica
		tracedOp, plainOp []float64
		opMs, trialMs     []float64
		busy, wall        time.Duration
		traced            []replica
		ops               int
	)
	rt0 := readRuntime()
	start := time.Now()
	for b := 0; b < minBlocks || time.Since(start) < r.cfg.seconds; b++ {
		var tr *tracer
		if r.tr != nil && b%2 == 0 {
			tr = r.tr
		}
		blk := w.runBlock(r.cfg.seed, b, per, r.workers, tr)
		op := float64(blk.wall) / 1e6 / float64(len(blk.reps))
		opMs = append(opMs, op)
		if tr != nil {
			tracedOp = append(tracedOp, op)
		} else {
			plainOp = append(plainOp, op)
		}
		wall += blk.wall
		for _, rep := range blk.reps {
			r.attempted++
			r.check(rep)
			if b < digestBlocks {
				digest.Write(rep.out)
			}
			if ops%recheckEvery == 0 {
				rechecks = append(rechecks, rep)
			}
			ops++
			busy += rep.dur
			trialMs = append(trialMs, float64(rep.dur)/1e6)
			if tr != nil {
				rep.out = nil
				traced = append(traced, rep)
			}
		}
	}
	rt := readRuntime().since(rt0)
	r.digest = hex.EncodeToString(digest.Sum(nil))

	for _, want := range rechecks {
		got := w.trial(openSpan{}, want.point, want.seed)
		if got.err != nil || !bytes.Equal(got.out, want.out) {
			r.fail("replica point %d seed %d: serial re-run differs from the pooled run", want.point, want.seed)
		}
	}
	r.logf("%d blocks, %d replicas, %d re-checked; ms per replica by block: min %.4g median %.4g max %.4g",
		len(opMs), ops, len(rechecks), percentile(opMs, 0), median(opMs), percentile(opMs, 1))

	if r.tr == nil {
		r.metrics["op_ms"] = fastest(opMs)
		return
	}
	var runNs, runSlots, allSlots float64
	var tx, deliv int
	for _, rep := range traced {
		runSlots += float64(rep.runSlots)
		allSlots += float64(rep.allSlots)
		tx += rep.tx
		deliv += rep.deliv
	}
	spans := r.tr.finished()
	for _, d := range durations(spans, "core.run", time.Nanosecond) {
		runNs += d
	}
	m := r.metrics
	m["pool.busy_ms_p50"] = median(trialMs)
	m["pool.busy_ms_p90"] = percentile(trialMs, 0.9)
	m["pool.idle_frac"] = 1 - float64(busy)/(float64(r.workers)*float64(wall))
	m["core.build_us"] = median(durations(spans, "core.build", time.Microsecond))
	m["core.run_ns_per_slot"] = runNs / runSlots
	m["channel.tx_per_slot"] = float64(tx) / allSlots
	m["channel.deliveries_per_tx"] = float64(deliv) / float64(tx)
	m["runtime.alloc_mb_per_op"] = rt.allocMB / float64(ops)
	m["runtime.gc_cpu_frac"] = rt.gcFrac
	m["trace.overhead_frac"] = fastest(tracedOp)/fastest(plainOp) - 1
	r.stats = append(r.stats, w.model(traced)...)
	r.layerProbes(w.pktMix, w.medium)
}

// Creation: the paper's Figs 6-8 trial, a full inquiry then page
// between two fresh devices under channel noise.

// creationBERs are the creation workload's parameter points.
var creationBERs = []float64{0, 1.0 / 100, 1.0 / 50, 1.0 / 30}

// creationTimeout is the paper's 1.28 s inquiry and page timeout.
const creationTimeout = 2048

func creationWorkload() *simWorkload {
	return &simWorkload{
		points: len(creationBERs), per: 128, canaryPer: 32, quickPer: 8,
		trial:  creationTrial,
		model:  creationModel,
		pktMix: []string{"ID"},
		medium: "global2",
	}
}

func creationTrial(parent openSpan, point int, seed uint64) replica {
	sp := parent.child("core.build")
	s := core.NewSimulation(core.Options{Seed: seed, BER: creationBERs[point]})
	m := s.AddDevice("master", baseband.Config{Addr: baseband.BDAddr{LAP: 0x21043A, UAP: 0x47, NAP: 0x0001}})
	sl := s.AddDevice("slave", baseband.Config{Addr: baseband.BDAddr{LAP: 0x5A3F19, UAP: 0x9C, NAP: 0x0002}})
	sp.end()
	sp = parent.child("core.run")
	o := s.RunCreation(m, sl, creationTimeout)
	sp.end()
	out := make([]byte, 18)
	if o.InquiryOK {
		out[0] = 1
	}
	if o.PageOK {
		out[1] = 1
	}
	binary.LittleEndian.PutUint64(out[2:], o.InquirySlots)
	binary.LittleEndian.PutUint64(out[10:], o.PageSlots)
	st := s.Ch.Stats()
	return replica{
		out: out, runSlots: s.Now(), allSlots: s.Now(),
		tx: st.Transmissions, deliv: st.Deliveries,
		obs: []float64{b2f(o.Created()), b2f(o.InquiryOK), float64(o.InquirySlots), b2f(o.PageOK), float64(o.PageSlots)},
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// creationModel reports the creation probability per BER and the
// noiseless phase durations, next to the paper's Figs 6-8.
func creationModel(reps []replica) []stat {
	labels := []string{"ber0", "ber100", "ber50", "ber30"}
	var out []stat
	for p, label := range labels {
		var n, created float64
		for _, r := range reps {
			if r.point == p {
				n++
				created += r.obs[0]
			}
		}
		out = append(out, stat{name: "baseband.created_frac." + label, value: created / n})
	}
	var inq, inqN, page, pageN float64
	for _, r := range reps {
		if r.point != 0 {
			continue
		}
		if r.obs[1] == 1 {
			inq += r.obs[2]
			inqN++
		}
		if r.obs[3] == 1 {
			page += r.obs[4]
			pageN++
		}
	}
	return append(out,
		stat{name: "baseband.inquiry_ts_mean", value: inq / inqN, paper: "~1556"},
		stat{name: "baseband.page_ts_mean", value: page / pageN, paper: "~17"})
}

// Powersave and office: netspec worlds run through the service's
// replica discipline (simd.RunReplica). The traced path splits that
// discipline into its public calls so each gets a span.

// netspecWorkload builds a simWorkload over one spec and horizon.
// observe extracts the workload's simulated statistics from a traced
// replica's world.
func netspecWorkload(spec netspec.Spec, slots uint64, observe func(*netspec.World, netspec.Metrics) []float64) func(openSpan, int, uint64) replica {
	return func(parent openSpan, _ int, seed uint64) replica {
		if parent.tr == nil {
			m, err := simd.RunReplica(context.Background(), spec, seed, 0, slots)
			return replica{out: mustJSON(m), err: err}
		}
		sp := parent.child("core.build")
		s := core.NewSimulation(core.Options{Seed: seed})
		w, err := netspec.Build(s, spec)
		sp.end()
		if err != nil {
			return replica{err: err}
		}
		sp = parent.child("netspec.start")
		w.Start()
		w.ResetMetrics()
		sp.end()
		sp = parent.child("core.run")
		// The same slot chunks RunReplica advances by.
		for done := uint64(0); done < slots; {
			n := min(4096, slots-done)
			s.RunSlots(n)
			done += n
		}
		sp.end()
		sp = parent.child("netspec.metrics")
		m := w.Metrics()
		sp.end()
		st := s.Ch.Stats()
		return replica{
			out: mustJSON(m), runSlots: slots, allSlots: s.Now(),
			tx: st.Transmissions, deliv: st.Deliveries,
			obs: observe(w, m),
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("btbench: encoding %T: %v", v, err))
	}
	return b
}

// powersaveSlots is the horizon of one powersave replica.
const powersaveSlots = 100_000

func powersaveWorkload(spec netspec.Spec) *simWorkload {
	return &simWorkload{
		points: 1, per: 8, canaryPer: 4, quickPer: 2,
		trial: netspecWorkload(spec, powersaveSlots, func(w *netspec.World, m netspec.Metrics) []float64 {
			// Slave j of every piconet runs the same mode: activity per
			// mode, averaged over the piconets.
			out := make([]float64, 3)
			for _, p := range w.Piconets {
				for j, sl := range p.Slaves {
					tx, rx := core.Activity(sl)
					out[j] += (tx + rx) / float64(len(w.Piconets))
				}
			}
			return out
		}),
		model: func(reps []replica) []stat {
			names := []string{"sniff100", "hold400", "sniff800"}
			var out []stat
			for j, n := range names {
				out = append(out, stat{name: "power.slave_activity." + n, value: meanObs(reps, j)})
			}
			return out
		},
		pktMix: []string{"DM1"},
		medium: "global2",
	}
}

// officeSlots is the horizon of one office replica.
const officeSlots = 20_000

func officeWorkload(spec netspec.Spec) *simWorkload {
	return &simWorkload{
		points: 1, per: 2, canaryPer: 2, quickPer: 2,
		trial: netspecWorkload(spec, officeSlots, func(_ *netspec.World, m netspec.Metrics) []float64 {
			return []float64{m.GoodputKbps(), float64(m.Retransmits) * 1000 / float64(m.Slots)}
		}),
		model: func(reps []replica) []stat {
			return []stat{
				{name: "netspec.goodput_kbps", value: meanObs(reps, 0)},
				{name: "netspec.retransmits_per_kslot", value: meanObs(reps, 1)},
			}
		},
		pktMix: []string{"DM1", "DH5"},
		medium: "spatial32",
	}
}

// meanObs averages observation i over the replicas.
func meanObs(reps []replica, i int) float64 {
	var sum float64
	for _, r := range reps {
		sum += r.obs[i]
	}
	return sum / float64(len(reps))
}
