package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/simd"
)

// server is an in-process btsimd: a simd.Engine serving its real
// Handler on a loopback listener.
type server struct {
	eng   *simd.Engine
	http  *http.Server
	base  string
	serve chan error
}

// startServer starts the engine the service workloads measure: one job
// at a time on a pool of every core, and no monitor replica (no SSE
// client ever subscribes, so a monitor would only compete for cores).
func startServer(workers int) (*server, error) {
	eng := simd.New(simd.Options{MaxJobs: 1, Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &server{
		eng:   eng,
		http:  &http.Server{Handler: eng.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:  "http://" + ln.Addr().String(),
		serve: make(chan error, 1),
	}
	go func() { s.serve <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for Serve to return and closes the
// engine.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.serve
	s.eng.Close()
}

// client drives a server over at most `conns` keep-alive connections.
type client struct {
	srv *server
	hc  *http.Client
}

func newClient(srv *server, conns int) *client {
	return &client{srv: srv, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}}
}

// do performs one HTTP round trip and returns the body of a 2xx reply.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.srv.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// jobResult is one job as the client saw it.
type jobResult struct {
	latency time.Duration // POST sent to the last byte of the result GET
	submit  time.Duration // POST round trip
	result  time.Duration // result GET round trip
	queue   time.Duration // accepted to running, as observed in-process
	running time.Duration // running to done; 0 for a cache hit
	cached  bool
	size    int    // result GET body bytes
	body    []byte // the result, compact JSON
	err     error
}

// job submits one campaign, waits for it in-process with Job.Subscribe
// and reads the result.
func (c *client) job(ctx context.Context, root openSpan, body []byte) (jr jobResult) {
	sp := root.child("http.submit")
	t0 := time.Now()
	b, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	accepted := time.Now()
	sp.end()
	jr.submit = accepted.Sub(t0)
	if err != nil {
		jr.err = err
		return jr
	}
	var st struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if jr.err = json.Unmarshal(b, &st); jr.err != nil {
		return jr
	}
	jr.cached = st.Cached
	job, ok := c.srv.eng.Job(st.ID)
	if !ok {
		jr.err = fmt.Errorf("job %s unknown to the engine", st.ID)
		return jr
	}

	sp = root.child("simd.wait")
	running, err := waitDone(ctx, job)
	done := time.Now()
	sp.end()
	if err != nil {
		jr.err = fmt.Errorf("job %s: %w", st.ID, err)
		return jr
	}
	if !running.IsZero() {
		jr.queue = running.Sub(accepted)
		jr.running = done.Sub(running)
	}

	sp = root.child("http.result")
	b, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
	end := time.Now()
	sp.end()
	jr.result = end.Sub(done)
	jr.latency = end.Sub(t0)
	if err != nil {
		jr.err = err
		return jr
	}
	jr.size = len(b)
	var got struct {
		State  simd.State      `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if jr.err = json.Unmarshal(b, &got); jr.err != nil {
		return jr
	}
	if got.State != simd.StateDone {
		jr.err = fmt.Errorf("job %s ended %s: %s", st.ID, got.State, got.Error)
		return jr
	}
	var compact bytes.Buffer
	jr.err = json.Compact(&compact, got.Result)
	jr.body = compact.Bytes()
	return jr
}

// waitDone blocks until the job is terminal and returns when it was
// first seen running (zero if it never was: a cache hit).
func waitDone(ctx context.Context, job *simd.Job) (running time.Time, err error) {
	ch, catchUp := job.Subscribe()
	defer job.Unsubscribe(ch)
	note := func(ev simd.Event) {
		if se, ok := ev.Data.(simd.StateEvent); ok && se.State == simd.StateRunning && running.IsZero() {
			running = time.Now()
		}
	}
	for _, ev := range catchUp {
		note(ev)
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return running, nil
			}
			note(ev)
		case <-ctx.Done():
			return running, ctx.Err()
		}
	}
}

// Job mix and load of the service workload.
const (
	freshSeeds     = 2      // replicas per fresh campaign
	freshSlots     = 2000   // horizon of a fresh campaign
	forkSettle     = 20_000 // settle horizon of a fork campaign
	forkPool       = 4      // distinct settle seeds fork campaigns draw from
	serviceClients = 2      // concurrent clients: one job always waits behind another
	blockJobs      = 32     // jobs per timed block: eight groups of the mix
	quickJobs      = 8      // jobs per block in a -quick run
	drainBudget    = 60 * time.Second
)

type jobKind int

const (
	freshJob  jobKind = iota // a new campaign: simulates
	forkJob                  // a campaign forked from a cached settled checkpoint
	repeatJob                // an earlier fresh campaign again: a result-cache read
)

var kindNames = [...]string{"fresh", "fork", "repeat"}

// jobPlan is one job of the closed loop.
type jobPlan struct {
	kind jobKind
	req  simd.Request
	body []byte
}

// planner draws the service's jobs from the seed, block by block, in
// groups of four holding two fresh campaigns, one fork and one repeat in
// seeded order, so every block has the same mix. Fork campaigns settle
// on one of the pool's seeds.
type planner struct {
	spec *netspec.Spec
	pool []uint64
	rng  *rand.Rand
	prev []simd.Request // the fresh campaigns of the previous block
}

func newPlanner(spec *netspec.Spec, seed uint64, pool []uint64) *planner {
	return &planner{spec: spec, pool: pool, rng: rand.New(rand.NewPCG(seed, 0xB7B35E41))}
}

// block plans the next n jobs. A repeat re-sends one of the previous
// block's fresh campaigns: that campaign has finished, and fewer than
// two blocks of other jobs (62 at most) have entered the result cache
// since, which keeps 64, so every repeat is a hit. The first block has
// nothing to repeat and sends fresh campaigns in its place.
func (p *planner) block(n int) []jobPlan {
	var plans []jobPlan
	var fresh []simd.Request
	for len(plans) < n {
		group := []jobKind{freshJob, freshJob, forkJob, repeatJob}
		p.rng.Shuffle(len(group), func(a, b int) { group[a], group[b] = group[b], group[a] })
		for _, kind := range group {
			if kind == repeatJob && len(p.prev) == 0 {
				kind = freshJob
			}
			var req simd.Request
			switch kind {
			case freshJob:
				req = simd.Request{Spec: p.spec, Seeds: simd.SeedRange{First: 1<<32 + uint64(p.rng.Uint32()), Count: freshSeeds}, Slots: freshSlots}
				fresh = append(fresh, req)
			case forkJob:
				req = forkRequest(p.spec, p.pool[p.rng.IntN(len(p.pool))], 1000+uint64(p.rng.IntN(1001)))
			case repeatJob:
				req = p.prev[p.rng.IntN(len(p.prev))]
			}
			plans = append(plans, jobPlan{kind: kind, req: req, body: mustJSON(req)})
		}
	}
	p.prev = fresh
	return plans
}

// runBlock sends one block of jobs from serviceClients concurrent
// clients, each sending its next job as soon as it has read the last
// one's result, and returns the results in plan order with the block's
// wall time. tr may be nil for an untraced block; first is the block's
// first job index, which names the traced jobs.
func (c *client) runBlock(ctx context.Context, plans []jobPlan, tr *tracer, first int) ([]jobResult, time.Duration) {
	res := make([]jobResult, len(plans))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for k := 0; k < serviceClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(plans); i = int(next.Add(1)) - 1 {
				root := tr.start("simd.job", 0, int64(first+i))
				res[i] = c.job(ctx, root, plans[i].body)
				root.end()
			}
		}()
	}
	wg.Wait()
	return res, time.Since(t0)
}

// settlePool picks the fork pool's settle seeds and settles their
// checkpoints through the service, before timing: checkpoint-cache
// misses are a cold start, and four 200 ms settles would otherwise
// slow the first timed blocks. Some settled worlds never reach a
// quiescent slot edge and cannot be snapshotted; their seeds are passed
// over, so no timed fork campaign fails.
func settlePool(ctx context.Context, c *client, spec *netspec.Spec, seed uint64) ([]uint64, error) {
	rng := rand.New(rand.NewPCG(seed, 0xF0A7))
	var pool []uint64
	for tries := 0; len(pool) < forkPool; tries++ {
		if tries == 4*forkPool {
			return nil, fmt.Errorf("only %d of %d settle seeds snapshot", len(pool), forkPool)
		}
		s := 1<<32 + uint64(rng.Uint32())
		if jr := c.job(ctx, openSpan{}, mustJSON(forkRequest(spec, s, 1000))); jr.err == nil {
			pool = append(pool, s)
		}
	}
	return pool, nil
}

func forkRequest(spec *netspec.Spec, settleSeed, slots uint64) simd.Request {
	return simd.Request{
		Spec: spec, Seeds: simd.SeedRange{First: settleSeed, Count: freshSeeds},
		Slots: slots, SettleSlots: forkSettle, Fork: true,
	}
}

// canaryJobs is the service canary: a fresh campaign, a fork campaign
// and the fresh campaign again, on fixed seeds.
func canaryJobs(spec *netspec.Spec) []simd.Request {
	fresh := simd.Request{Spec: spec, Seeds: simd.SeedRange{First: 11, Count: freshSeeds}, Slots: freshSlots}
	return []simd.Request{fresh, forkRequest(spec, 12, 1500), fresh}
}

// runService runs the service workload: the canary, the fork pool's
// settles, a warm-up block that fills the result cache the first timed
// block repeats from, timed blocks until the run's time is up, then the
// serial re-check.
func (r *run) runService(srv *server, spec netspec.Spec) {
	c := newClient(srv, serviceClients)
	defer c.hc.CloseIdleConnections()
	bg := context.Background()

	h := sha256.New()
	for _, req := range canaryJobs(&spec) {
		r.attempted++
		jr := c.job(bg, openSpan{}, mustJSON(req))
		if jr.err != nil {
			r.fail("canary job: %v", jr.err)
			continue
		}
		h.Write(jr.body)
	}
	r.checkCanary(hex.EncodeToString(h.Sum(nil)))

	pool, err := settlePool(bg, c, &spec, r.cfg.seed)
	if err != nil {
		r.fail("settling the fork pool: %v", err)
		return
	}
	size := blockJobs
	if r.cfg.quick {
		size = quickJobs
	}
	pl := newPlanner(&spec, r.cfg.seed, pool)
	ctx, cancel := context.WithTimeout(bg, r.cfg.seconds+drainBudget)
	defer cancel()
	warm, _ := c.runBlock(ctx, pl.block(size), nil, 0)
	for i, jr := range warm {
		r.attempted++
		if jr.err != nil {
			r.fail("warm-up job %d: %v", i, jr.err)
		}
	}
	before, err := c.stats(bg)
	if err != nil {
		r.fail("GET /v1/stats: %v", err)
	}

	digest := sha256.New()
	var (
		plans                      []jobPlan
		res                        []jobResult
		blockMs, tracedMs, plainMs []float64
		wall                       time.Duration
	)
	rt0 := readRuntime()
	start := time.Now()
	for b := 0; b < minBlocks || time.Since(start) < r.cfg.seconds; b++ {
		var tr *tracer
		if r.tr != nil && b%2 == 0 {
			tr = r.tr
		}
		ps := pl.block(size)
		br, w := c.runBlock(ctx, ps, tr, len(plans))
		wall += w
		var sum float64
		ok := 0
		for i, jr := range br {
			r.attempted++
			if jr.err != nil {
				r.fail("job %d (%s): %v", len(plans)+i, kindNames[ps[i].kind], jr.err)
				continue
			}
			if b < digestBlocks {
				digest.Write(jr.body)
			}
			sum += float64(jr.latency) / 1e6
			ok++
		}
		plans = append(plans, ps...)
		res = append(res, br...)
		if ok == 0 {
			continue
		}
		mean := sum / float64(ok)
		blockMs = append(blockMs, mean)
		if tr != nil {
			tracedMs = append(tracedMs, mean)
		} else {
			plainMs = append(plainMs, mean)
		}
	}
	rt := readRuntime().since(rt0)
	after, err := c.stats(bg)
	if err != nil {
		r.fail("GET /v1/stats: %v", err)
	}
	r.digest = hex.EncodeToString(digest.Sum(nil))

	checked := 0
	for i := 0; i < len(plans); i += recheckEvery {
		if res[i].err != nil {
			continue
		}
		checked++
		want, err := simd.Run(bg, plans[i].req, runner.Config{Workers: runner.Serial})
		if err != nil || !bytes.Equal(mustJSON(want), res[i].body) {
			r.fail("job %d (%s): in-process simd.Run differs from the served result (err %v)", i, kindNames[plans[i].kind], err)
		}
	}
	r.logf("%d blocks, %d jobs on %d clients over %.1f s, %d re-checked; mean ms per job by block: min %.4g median %.4g max %.4g",
		len(blockMs), len(plans), serviceClients, wall.Seconds(), checked, percentile(blockMs, 0), median(blockMs), percentile(blockMs, 1))
	r.logServiceBreakdown(plans, res, before, after, wall)

	if r.tr == nil {
		r.metrics["op_ms"] = fastest(blockMs)
		return
	}
	var runMs []float64
	var busy time.Duration
	for _, jr := range res {
		if jr.running > 0 {
			runMs = append(runMs, float64(jr.running)/1e6)
			busy += jr.running
		}
	}
	m := r.metrics
	m["pool.busy_ms_p50"] = median(runMs)
	m["pool.busy_ms_p90"] = percentile(runMs, 0.9)
	m["pool.idle_frac"] = 1 - float64(busy)/float64(wall)
	m["runtime.alloc_mb_per_op"] = rt.allocMB / float64(len(plans))
	m["runtime.gc_cpu_frac"] = rt.gcFrac
	m["trace.overhead_frac"] = fastest(tracedMs)/fastest(plainMs) - 1
	r.replayFresh(spec, plans)
	r.layerProbes([]string{"DM1"}, "spatial32")
}

// replayFresh re-runs the first distinct fresh campaigns in-process,
// split into their public calls, to price the simulation layers under
// the service: world build, run time per slot and channel counts.
func (r *run) replayFresh(spec netspec.Spec, plans []jobPlan) {
	trial := netspecWorkload(spec, freshSlots, func(*netspec.World, netspec.Metrics) []float64 { return nil })
	var runSlots, allSlots float64
	var tx, deliv, replayed int
	for _, p := range plans {
		if p.kind != freshJob || replayed == 8 {
			continue
		}
		replayed++
		for k := 0; k < p.req.Seeds.Count; k++ {
			seed := p.req.Seeds.First + uint64(k)
			root := r.tr.start("replay.replica", 0, int64(seed))
			rep := trial(root, 0, seed)
			root.end()
			if rep.err != nil {
				r.fail("replaying seed %d: %v", seed, rep.err)
				continue
			}
			runSlots += float64(rep.runSlots)
			allSlots += float64(rep.allSlots)
			tx += rep.tx
			deliv += rep.deliv
		}
	}
	spans := r.tr.finished()
	var runNs float64
	for _, d := range durations(spans, "core.run", time.Nanosecond) {
		runNs += d
	}
	m := r.metrics
	m["core.build_us"] = median(durations(spans, "core.build", time.Microsecond))
	m["core.run_ns_per_slot"] = runNs / runSlots
	m["channel.tx_per_slot"] = float64(tx) / allSlots
	m["channel.deliveries_per_tx"] = float64(deliv) / float64(tx)
}

// stats reads GET /v1/stats.
func (c *client) stats(ctx context.Context) (simd.Stats, error) {
	var st simd.Stats
	b, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// logServiceBreakdown prints where the jobs' time went: per-kind
// latency, the HTTP round trips, queueing and running as observed
// in-process, and the cache hit rates of the timed phase.
func (r *run) logServiceBreakdown(plans []jobPlan, res []jobResult, before, after simd.Stats, wall time.Duration) {
	var byKind [3][]float64
	var submit, result, queue, running, size []float64
	var busy time.Duration
	for i, jr := range res {
		if jr.err != nil {
			continue
		}
		byKind[plans[i].kind] = append(byKind[plans[i].kind], float64(jr.latency)/1e6)
		submit = append(submit, float64(jr.submit)/1e6)
		result = append(result, float64(jr.result)/1e6)
		size = append(size, float64(jr.size)/1024)
		if jr.running > 0 {
			queue = append(queue, float64(jr.queue)/1e6)
			running = append(running, float64(jr.running)/1e6)
			busy += jr.running
		}
	}
	for k, xs := range byKind {
		if len(xs) > 0 {
			r.logf("%-6s jobs %4d  latency p50 %8.2f ms  p90 %8.2f ms", kindNames[k], len(xs), median(xs), percentile(xs, 0.9))
		}
	}
	r.logf("simd.submit_ms p50 %.3f  simd.result_ms p50 %.3f  simd.result_kb p50 %.1f",
		median(submit), median(result), median(size))
	r.logf("simd.queue_ms p50 %.2f p90 %.2f  simd.run_ms p50 %.2f  simd.busy_frac %.3f (%d jobs ran)",
		median(queue), percentile(queue, 0.9), median(running), float64(busy)/float64(wall), len(running))
	hitFrac := func(b, a simd.CacheStats) float64 {
		return float64(a.Hits-b.Hits) / float64(a.Hits-b.Hits+a.Misses-b.Misses)
	}
	r.logf("simd.cache_hit_frac %.3f  simd.ck_hit_frac %.3f",
		hitFrac(before.Cache, after.Cache), hitFrac(before.Checkpoints, after.Checkpoints))
}
