package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/access"
	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/hop"
	"repro/internal/netspec"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Microprobes time public functions of the layers that only ever run
// inside a simulation, on inputs shaped like the workloads' traffic.
// They run in traced runs only, after the timed phase.

const (
	probeBatch   = 5 * time.Millisecond // shortest timed batch
	probeBatches = 5                    // batches per probe; the median counts
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink any

// timeOp reports fn's median cost per call in ns over probeBatches
// batches, and its heap allocations per call.
func timeOp(fn func(i int)) (ns, allocs float64) {
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return time.Since(t0)
	}
	n := 1
	for d := batch(n); d < probeBatch; d = batch(n) {
		n *= 2
	}
	a0 := heapObjects()
	per := make([]float64, probeBatches)
	for b := range per {
		per[b] = float64(batch(n)) / float64(n)
	}
	return median(per), float64(heapObjects()-a0) / float64(n*probeBatches)
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Addresses and clock shared by the probes: the creation workload's
// master and slave.
const (
	probeLAP = 0x21043A
	probeUAP = 0x47
	probeCLK = 0x2A5C
)

// probePackets are the packet shapes the probes assemble and parse:
// the inquiry/page train's ID, the FHS that answers it, and the
// smallest and largest ACL data packets.
func probePackets() map[string]*packet.Packet {
	return map[string]*packet.Packet{
		"ID": packet.NewID(probeLAP),
		"FHS": {AccessLAP: probeLAP, Header: &packet.Header{Type: packet.TypeFHS},
			FHS: &packet.FHSPayload{LAP: 0x5A3F19, UAP: 0x9C, NAP: 2, Class: 0x200404, AMAddr: 1, CLK: 0x2345678}},
		"DM1": {AccessLAP: probeLAP, Header: &packet.Header{AMAddr: 1, Type: packet.TypeDM1},
			Payload: make([]byte, packet.TypeDM1.MaxPayload()), LLID: packet.LLIDL2CAPStart},
		"DH5": {AccessLAP: probeLAP, Header: &packet.Header{AMAddr: 1, Type: packet.TypeDH5},
			Payload: make([]byte, packet.TypeDH5.MaxPayload()), LLID: packet.LLIDL2CAPStart},
	}
}

// packetTypes are the probed packet shapes, in probe order.
var packetTypes = []string{"ID", "FHS", "DM1", "DH5"}

// rxStub is a Listener owned by the benchmark: it accepts every
// delivery and does nothing with it, so the channel probes price the
// medium alone.
type rxStub struct{ name string }

func (r *rxStub) Name() string                                 { return r.name }
func (r *rxStub) RxStart(*channel.Transmission)                {}
func (r *rxStub) RxEnd(*channel.Transmission, *bits.Vec, bool) {}

// transmitProbe returns one Transmit plus its delivery events on a
// channel where every listener is tuned to the transmitter's frequency.
func transmitProbe(spatial bool, listeners int) func(int) {
	k := sim.NewKernel()
	c := channel.New(k, sim.NewRand(1), channel.Config{})
	if spatial {
		// The office floor: piconets on a 4-wide 10 m grid, each a master
		// and a slave a metre apart, the transmitter among them.
		c.EnableSpatial(channel.SpatialConfig{RangeM: 12, InterferenceM: 22})
		c.Place("tx", channel.Position{X: 10, Y: 10})
	}
	for i := 0; i < listeners; i++ {
		name := fmt.Sprintf("rx%02d", i)
		if spatial {
			g := i / 2
			c.Place(name, channel.Position{X: float64(g%4) * 10, Y: float64(g/4)*10 + float64(i%2)})
		}
		c.Tune(&rxStub{name: name}, 0)
	}
	v := probePackets()["DM1"].Assemble(probeUAP, probeCLK)
	return func(int) {
		c.Transmit("tx", 0, v, nil)
		k.Run()
	}
}

// layerProbes runs every microprobe and the checkpoint and service
// probes, then the share estimates that combine them with the run's
// own counts. pktMix and medium name the probes that match the
// workload's traffic.
func (r *run) layerProbes(pktMix []string, medium string) {
	m := r.metrics
	pk := probePackets()
	for _, name := range packetTypes {
		p := pk[name]
		rx := p.Assemble(probeUAP, probeCLK)
		if _, _, err := packet.Parse(rx, probeLAP, probeUAP, probeCLK, access.DefaultCorrelatorThreshold); err != nil {
			r.fail("probe packet %s does not parse: %v", name, err)
			continue
		}
		m["packet.assemble_ns."+name], m["packet.assemble_allocs."+name] = timeOp(func(int) {
			sink = p.Assemble(probeUAP, probeCLK)
		})
		m["packet.parse_ns."+name], m["packet.parse_allocs."+name] = timeOp(func(int) {
			sink, _, _ = packet.Parse(rx, probeLAP, probeUAP, probeCLK, access.DefaultCorrelatorThreshold)
		})
	}

	sel := hop.NewSelector(hop.Addr28(probeLAP, probeUAP))
	var f int
	m["hop.basic_ns"], _ = timeOp(func(i int) { f += sel.Basic(uint32(i) << 1) })
	m["hop.page_ns"], _ = timeOp(func(i int) { f += sel.Page(uint32(i), i&1 == 0) })
	m["hop.scan_ns"], _ = timeOp(func(i int) { f += sel.Scan(uint32(i) << 12) })
	sink = f

	m["channel.transmit_ns.global2"], _ = timeOp(transmitProbe(false, 2))
	m["channel.transmit_ns.spatial32"], _ = timeOp(transmitProbe(true, 32))

	k := sim.NewKernel()
	t := k.NewTimer(func() {})
	m["sim.timer_ns"], _ = timeOp(func(int) {
		t.Schedule(sim.Slots(1))
		k.RunUntil(k.Now() + sim.Time(sim.Slots(1)))
	})

	if err := r.checkpointProbe(); err != nil {
		r.fail("checkpoint probe: %v", err)
	}
	if err := r.serviceProbe(); err != nil {
		r.fail("service probe: %v", err)
	}

	// Shares of the run's simulation time: the per-slot count of the
	// probed call (transmissions, and deliveries for parsing) times its
	// unit cost, over the measured time per simulated slot. The channel
	// does not count transmissions by packet type, so every one is priced
	// as the workload's data packet; header-only polls and NULLs cost
	// less, and where they dominate (powersave) the packet share is an
	// overestimate.
	var assemble, parse float64
	for _, t := range pktMix {
		assemble += m["packet.assemble_ns."+t] / float64(len(pktMix))
		parse += m["packet.parse_ns."+t] / float64(len(pktMix))
	}
	txPerSlot, perSlot := m["channel.tx_per_slot"], m["core.run_ns_per_slot"]
	m["packet.share_est"] = txPerSlot * (assemble + m["channel.deliveries_per_tx"]*parse) / perSlot
	m["channel.share_est"] = txPerSlot * m["channel.transmit_ns."+medium] / perSlot
}

// checkpointProbe prices the checkpoint rung on the service's fork
// world: snapshot, encode, decode and restore of a settled world.
func (r *run) checkpointProbe() error {
	spec, err := serviceSpec()
	if err != nil {
		return err
	}
	s := core.NewSimulation(core.Options{Seed: 12})
	w, err := netspec.Build(s, spec)
	if err != nil {
		return err
	}
	w.Start()
	s.RunSlots(forkSettle)

	var ck *netspec.WorldCheckpoint
	var enc []byte
	var opErr error
	keep := func(e error) {
		if e != nil && opErr == nil {
			opErr = e
		}
	}
	m := r.metrics
	m["netspec.snapshot_us"], _ = timeOp(func(int) { ck, err = w.Snapshot(); keep(err) })
	if opErr != nil {
		return opErr
	}
	m["netspec.encode_us"], _ = timeOp(func(int) { enc, err = ck.Encode(); keep(err) })
	m["netspec.decode_us"], _ = timeOp(func(int) { sink, err = netspec.DecodeCheckpoint(enc); keep(err) })
	m["netspec.checkpoint_kb"] = float64(len(enc)) / 1024
	// Each restore gets its own decoded copy, as simd.ForkReplica does;
	// only the restore is timed.
	var per []float64
	for i := 0; i < 20; i++ {
		dec, err := netspec.DecodeCheckpoint(enc)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = netspec.RestoreWorld(core.NewSimulation(core.Options{Seed: dec.Core.Seed}), dec, core.RestoreOptions{ForkSeed: 7})
		per = append(per, float64(time.Since(t0)))
		keep(err)
	}
	for _, k := range []string{"netspec.snapshot_us", "netspec.encode_us", "netspec.decode_us"} {
		m[k] /= 1e3
	}
	m["netspec.restore_us"] = median(per) / 1e3
	return opErr
}

// serviceProbe prices the service's HTTP surface on a server of its
// own: the POST of a campaign the result cache already holds, and the
// GET of its result.
func (r *run) serviceProbe() error {
	spec, err := serviceSpec()
	if err != nil {
		return err
	}
	srv, err := startServer(r.workers)
	if err != nil {
		return err
	}
	defer srv.close()
	c := newClient(srv, 1)
	defer c.hc.CloseIdleConnections()
	ctx := context.Background()
	body := mustJSON(canaryJobs(&spec)[0])
	first := c.job(ctx, openSpan{}, body)
	if first.err != nil {
		return first.err
	}
	var submit, result, size []float64
	for i := 0; i < 30; i++ {
		jr := c.job(ctx, openSpan{}, body)
		if jr.err != nil {
			return jr.err
		}
		if !jr.cached {
			return fmt.Errorf("repeated campaign missed the result cache")
		}
		submit = append(submit, float64(jr.submit)/1e6)
		result = append(result, float64(jr.result)/1e6)
		size = append(size, float64(jr.size)/1024)
	}
	r.metrics["simd.submit_ms"] = median(submit)
	r.metrics["simd.result_ms"] = median(result)
	r.metrics["simd.result_kb"] = median(size)
	return nil
}

// serviceSpec decodes the service workload's world, which the probes
// use whatever the workload.
func serviceSpec() (netspec.Spec, error) {
	b, err := specFiles.ReadFile("specs/service.json")
	if err != nil {
		return netspec.Spec{}, err
	}
	return decodeSpec(b)
}
