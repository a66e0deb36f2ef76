package simd

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
)

// SeedRange names the replica seeds of a campaign: Count consecutive
// seeds starting at First. Replica r of every point runs under seed
// First+r — common random numbers across points, exactly like the
// experiments layer's sweeps.
type SeedRange struct {
	First uint64 `json:"first"`
	Count int    `json:"count"`
}

// Request is the body of POST /v1/jobs: a replica campaign over one or
// more netspec worlds. Either Spec (one point) or Points (a parameter
// sweep, each point a full Spec) names the worlds; Seeds and Slots fix
// the replica seeds and the measurement horizon. The whole request is
// deterministic by construction — resubmitting it yields byte-identical
// results, which is what makes the result cache sound.
type Request struct {
	// Spec is the single-point form. Ignored when Points is non-empty.
	Spec *netspec.Spec `json:"spec,omitempty"`
	// Points is the sweep form: one full Spec per parameter point.
	Points []netspec.Spec `json:"points,omitempty"`
	// Seeds are the replica seeds shared by every point.
	Seeds SeedRange `json:"seeds"`
	// Slots is the measured horizon of every replica.
	Slots uint64 `json:"slots"`
	// SettleSlots run after World.Start and before the measurement
	// window opens (default 0); the paper's coexistence sweeps use a
	// short settle so ARQ pipelines are primed when measurement starts.
	SettleSlots uint64 `json:"settle_slots,omitempty"`
	// Fork switches the campaign to the checkpoint-fork discipline:
	// each point's world is built and settled once under Seeds.First,
	// snapshotted at the next quiescent slot edge, and every replica
	// restores from that one capture instead of rebuilding and
	// re-settling its own world. Replica 0 forks with seed 0 —
	// byte-identical to the straight continuation of the settled world
	// from the capture instant — while replica r >= 1 perturbs the
	// restored RNG streams with fork seed Seeds.First+r.
	// Forked and unforked campaigns measure different (both valid)
	// replica ensembles — perturbed streams over one warm-up versus
	// independent warm-ups — so Fork participates in the cache key.
	// Settle-heavy campaigns pay the settle once instead of once per
	// replica; see BenchmarkCheckpointFork for the rate gap.
	Fork bool `json:"fork,omitempty"`
}

// The request budget. A campaign runs points × seeds.count replicas,
// each over settle_slots + slots slots; requests past either cap are
// refused (422 over HTTP) instead of holding a runner slot for days.
// maxHorizonSlots (~87 simulated minutes) also keeps the horizon far
// below the 2^64/1250 slots where sim.Slots wraps the time axis.
const (
	maxReplicas     = 4096
	maxHorizonSlots = 1 << 23
)

// normalized returns the request with the single-point form folded into
// Points and defaults applied, or an error describing why it can never
// run. Spec validation errors come back as the *netspec.StanzaError the
// spec layer produced, so API clients see the same diagnostics the
// library gives.
func (r Request) normalized() (Request, error) {
	if len(r.Points) == 0 {
		if r.Spec == nil {
			return r, fmt.Errorf("simd: request has neither spec nor points")
		}
		r.Points = []netspec.Spec{*r.Spec}
	}
	r.Spec = nil
	if r.Seeds.Count == 0 {
		r.Seeds.Count = 1
	}
	if r.Seeds.Count < 0 {
		return r, fmt.Errorf("simd: seeds.count %d is negative", r.Seeds.Count)
	}
	if r.Slots == 0 {
		return r, fmt.Errorf("simd: slots must be at least 1")
	}
	if r.Seeds.Count > maxReplicas/len(r.Points) {
		return r, fmt.Errorf("simd: %d points × %d seeds exceeds the budget of %d replicas", len(r.Points), r.Seeds.Count, maxReplicas)
	}
	if r.SettleSlots > maxHorizonSlots || r.Slots > maxHorizonSlots-r.SettleSlots {
		return r, fmt.Errorf("simd: settle_slots %d + slots %d exceeds the budget of %d slots", r.SettleSlots, r.Slots, maxHorizonSlots)
	}
	for i := range r.Points {
		if err := r.Points[i].Validate(); err != nil {
			return r, fmt.Errorf("simd: points[%d]: %w", i, err)
		}
	}
	return r, nil
}

// CacheKey is the request's identity for the result cache: the hex
// SHA-256 over the canonical encoding of every point plus the seed
// range and horizons. Two requests that build the same worlds and run
// the same replicas — however their specs spelled the defaults — key
// identically.
func (r Request) CacheKey() (string, error) {
	n, err := r.normalized()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var hdr [48]byte
	binary.LittleEndian.PutUint64(hdr[0:], n.Seeds.First)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n.Seeds.Count))
	binary.LittleEndian.PutUint64(hdr[16:], n.Slots)
	binary.LittleEndian.PutUint64(hdr[24:], n.SettleSlots)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(n.Points)))
	if n.Fork {
		// Forked and unforked campaigns over the same points measure
		// different replica ensembles; they must never share a result.
		hdr[40] = 1
	}
	h.Write(hdr[:])
	for i := range n.Points {
		c, err := n.Points[i].Canonical()
		if err != nil {
			return "", fmt.Errorf("simd: points[%d]: %w", i, err)
		}
		var sz [8]byte
		binary.LittleEndian.PutUint64(sz[:], uint64(len(c)))
		h.Write(sz[:])
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// PointResult is one parameter point's replica table.
type PointResult struct {
	// SpecHash is the point's canonical spec hash (netspec.Spec.Hash).
	SpecHash string `json:"spec_hash"`
	// Replicas holds one Metrics window per seed, in seed order.
	Replicas []netspec.Metrics `json:"replicas"`
}

// Result is a completed campaign: [point][replica] metrics, the same
// layout runner.Sweep returns, so serial in-process runs and service
// runs are comparable entry by entry.
type Result struct {
	Points []PointResult `json:"points"`
}

// replicaChunkSlots is the horizon granularity at which a running
// replica re-checks its context. Chunking only splits RunSlots calls —
// the kernel advances to the same slot boundaries either way — so the
// chunk size cannot influence results, only cancellation latency.
const replicaChunkSlots = 4096

// feed is where a campaign's first replica publishes its live metrics:
// the running window since the replica's measurement opened, once every
// `every` measured slots and once at the end of the horizon. Reading
// the window does not close or reset it, so a fed replica reports the
// same result as an unfed one, and its last frame is that result.
type feed struct {
	every   uint64
	publish func(netspec.Metrics)
}

// RunReplica runs one replica of one point under the campaign
// discipline — build from seed, start, settle, open the window, run the
// horizon — and returns its Metrics window. The service executes this
// discipline per (point, seed), and cmd/btsim -spec calls it too, which
// is why a CLI run and the matching server replica entry are
// byte-identical JSON. A non-nil ctx cancels between slot chunks; the
// partial window is returned and the caller is responsible for
// discarding it (campaign results never include canceled windows).
func RunReplica(ctx context.Context, spec netspec.Spec, seed, settleSlots, slots uint64) (netspec.Metrics, error) {
	return runReplica(ctx, spec, seed, settleSlots, slots, nil)
}

// runReplica is RunReplica with an optional live-metrics feed.
func runReplica(ctx context.Context, spec netspec.Spec, seed, settleSlots, slots uint64, f *feed) (netspec.Metrics, error) {
	w, err := settled(spec, seed, settleSlots)
	if err != nil {
		return netspec.Metrics{}, err
	}
	return measure(ctx, w, slots, f)
}

// SettleCheckpoint builds spec under seed, starts its traffic, runs
// the settle horizon and captures the world at the next quiescent slot
// edge. It is the once-per-point Prepare half of a forked campaign; the
// checkpoint embeds the build seed, so ForkReplica needs nothing else.
func SettleCheckpoint(spec netspec.Spec, seed, settleSlots uint64) (*netspec.WorldCheckpoint, error) {
	w, err := settled(spec, seed, settleSlots)
	if err != nil {
		return nil, err
	}
	return w.Snapshot()
}

// ForkReplica restores one replica from ck under forkSeed (0 resumes
// the captured streams exactly), opens the metrics window at the fork
// instant and runs the measured horizon. RestoreWorld only reads ck,
// so concurrent forks share one capture. Cancellation mirrors
// RunReplica: a non-nil ctx stops between slot chunks and the partial
// window must be discarded.
func ForkReplica(ctx context.Context, ck *netspec.WorldCheckpoint, forkSeed, slots uint64) (netspec.Metrics, error) {
	return forkReplica(ctx, ck, forkSeed, slots, nil)
}

// forkReplica is ForkReplica with an optional live-metrics feed.
func forkReplica(ctx context.Context, ck *netspec.WorldCheckpoint, forkSeed, slots uint64, f *feed) (netspec.Metrics, error) {
	// The target must rebuild under the capture seed: placement layouts
	// draw from a seed-derived stream, not from checkpointed state.
	s := core.NewSimulation(core.Options{Seed: ck.Core.Seed})
	w, err := netspec.RestoreWorld(s, ck, core.RestoreOptions{ForkSeed: forkSeed})
	if err != nil {
		return netspec.Metrics{}, err
	}
	return measure(ctx, w, slots, f)
}

// settled builds spec under seed, starts its traffic and runs the
// settle horizon: the warm-up every replica discipline shares.
func settled(spec netspec.Spec, seed, settleSlots uint64) (*netspec.World, error) {
	s := core.NewSimulation(core.Options{Seed: seed})
	w, err := netspec.Build(s, spec)
	if err != nil {
		return nil, err
	}
	w.Start()
	if settleSlots > 0 {
		s.RunSlots(settleSlots)
	}
	return w, nil
}

// measure opens w's metrics window and runs slots in chunks of at most
// replicaChunkSlots, checking a non-nil ctx between chunks. A non-nil
// f also ends a chunk at every f.every boundary and publishes the
// window there and at the end of the horizon.
func measure(ctx context.Context, w *netspec.World, slots uint64, f *feed) (netspec.Metrics, error) {
	w.ResetMetrics()
	for done := uint64(0); done < slots; {
		if ctx != nil && ctx.Err() != nil {
			return w.Metrics(), ctx.Err()
		}
		n := min(replicaChunkSlots, slots-done)
		if f != nil {
			n = min(n, f.every-done%f.every)
		}
		w.Sim.RunSlots(n)
		done += n
		if f != nil && (done%f.every == 0 || done == slots) {
			f.publish(w.Metrics())
		}
	}
	return w.Metrics(), nil
}

// Run executes the campaign and returns its result. The replicas fan
// out through runner.Sweep (or runner.ForkSweep when the request asks
// for checkpoint forking) under cfg (workers, progress, context), and
// the [point][replica] result layout is schedule-independent, so any
// worker count — and the serial reference the determinism test uses —
// produces byte-identical Result JSON. A canceled context returns
// ctx.Err() and no result.
func Run(ctx context.Context, req Request, cfg runner.Config) (*Result, error) {
	return run(ctx, req, cfg, nil, nil)
}

// run is Run with an optional shared checkpoint cache and live feed.
// The engine passes its checkpoint LRU, so repeated forked campaigns on
// the same settled world skip the settle (bare Run settles every time),
// and, when snapshots are on, a feed that the campaign's first replica —
// point 0 under its first seed, or fork seed 0 — publishes to.
func run(ctx context.Context, req Request, cfg runner.Config, cks *lru[*netspec.WorldCheckpoint], live *feed) (*Result, error) {
	n, err := req.normalized()
	if err != nil {
		return nil, err
	}
	cfg.Context = ctx
	type rep struct {
		m   netspec.Metrics
		err error
	}
	// The sweeps run over point indices so a trial knows whether it is
	// point 0; the replica shows in its seed.
	idx := make([]int, len(n.Points))
	for i := range idx {
		idx[i] = i
	}
	fed := func(point int, first bool) *feed {
		if point == 0 && first {
			return live
		}
		return nil
	}
	seedOf := func(point, replica int) uint64 {
		return n.Seeds.First + uint64(replica)
	}
	var rows [][]rep
	if n.Fork {
		fw := runner.ForkSweep[int, *netspec.WorldCheckpoint, rep]{
			Name:     "campaign",
			Points:   idx,
			Replicas: n.Seeds.Count,
			Seed:     seedOf,
			Prepare: func(seed uint64, p int) (*netspec.WorldCheckpoint, error) {
				return settleCached(cks, n.Points[p], seed, n.SettleSlots)
			},
			Trial: func(ck *netspec.WorldCheckpoint, forkSeed uint64, p int) rep {
				m, err := forkReplica(ctx, ck, forkSeed, n.Slots, fed(p, forkSeed == 0))
				return rep{m, err}
			},
		}
		rows, err = fw.Run(cfg)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("simd: settling checkpoint: %w", err)
		}
	} else {
		sw := runner.Sweep[int, rep]{
			Name:     "campaign",
			Points:   idx,
			Replicas: n.Seeds.Count,
			Seed:     seedOf,
			Trial: func(seed uint64, p int) rep {
				m, err := runReplica(ctx, n.Points[p], seed, n.SettleSlots, n.Slots, fed(p, seed == n.Seeds.First))
				return rep{m, err}
			},
		}
		rows = sw.Run(cfg)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res := &Result{Points: make([]PointResult, len(n.Points))}
	for i := range n.Points {
		hash, err := n.Points[i].Hash()
		if err != nil {
			return nil, err
		}
		pr := PointResult{SpecHash: hash, Replicas: make([]netspec.Metrics, len(rows[i]))}
		for j, r := range rows[i] {
			if r.err != nil {
				return nil, fmt.Errorf("simd: points[%d] seed %d: %w", i, n.Seeds.First+uint64(j), r.err)
			}
			pr.Replicas[j] = r.m
		}
		res.Points[i] = pr
	}
	return res, nil
}

// settleCached returns the settled checkpoint for (spec, seed,
// settleSlots) from cks, the checkpoint LRU the engine keeps next to
// the result cache, settling and storing it on a miss; a nil cks
// settles every time. The result cache keys whole campaigns; this one
// keys settled worlds — (canonical spec, build seed, settle horizon) —
// so a forked what-if sweep that varies only the measured horizon or
// the replica count still reuses the expensive settle. No lock is held
// across the settle itself; two campaigns racing on the same key both
// simulate and store equal captures, which is wasteful but correct.
func settleCached(cks *lru[*netspec.WorldCheckpoint], spec netspec.Spec, seed, settleSlots uint64) (*netspec.WorldCheckpoint, error) {
	if cks == nil {
		return SettleCheckpoint(spec, seed, settleSlots)
	}
	key, err := ckKey(spec, seed, settleSlots)
	if err != nil {
		return nil, err
	}
	if ck, ok := cks.get(key); ok {
		return ck, nil
	}
	ck, err := SettleCheckpoint(spec, seed, settleSlots)
	if err != nil {
		return nil, err
	}
	cks.put(key, ck)
	return ck, nil
}

// ckKey is the checkpoint cache key: SHA-256 over the canonical spec
// plus the build seed and the settle horizon.
func ckKey(spec netspec.Spec, seed, settleSlots uint64) (string, error) {
	c, err := spec.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], seed)
	binary.LittleEndian.PutUint64(hdr[8:], settleSlots)
	h.Write(hdr[:])
	h.Write(c)
	return hex.EncodeToString(h.Sum(nil)), nil
}
