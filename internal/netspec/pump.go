package netspec

import (
	"math"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Every periodic driver of a built world — traffic pumps, the adaptive
// classifier, the bridge presence scheduler and drain — is one
// self-rescheduling closure. Each is registered as a pump: the closure
// records its pending event's ID every time it re-arms itself, so a
// checkpoint can capture the event's exact (at, seq) position via
// Kernel.EventInfo, and a restored world can rebuild the closure
// from a small captured descriptor and re-arm it through the shared
// sim.RearmSet alongside the baseband timers.

type pumpKind uint8

// Pump kinds (captured in checkpoints — append only).
const (
	pumpBulk pumpKind = iota + 1
	pumpPoisson
	pumpFlow
	pumpClassifier
	pumpSched
	pumpDrain
)

// PumpArm is one pump's captured descriptor: enough identity and
// parameters to rebuild its closure in a restored world, plus the
// pending event's captured position. Restore never consults the spec's
// traffic stanzas, so the descriptor is self-contained.
type PumpArm struct {
	Kind pumpKind
	// Piconet and Slave (0-based) locate bulk, poisson and classifier
	// pumps; Flow indexes World.Flows; Bridge indexes World.Bridges.
	Piconet, Slave int
	Flow           int
	Bridge         int
	// Depth is the bulk refill / flow gate depth; Bytes the bulk chunk,
	// poisson burst or flow SDU size; MeanGap the poisson mean.
	Depth   int
	Bytes   int
	MeanGap float64
	// RNG is the poisson source's captured stream position.
	RNG uint64
	// NextK is the presence scheduler's next half-period index.
	NextK uint64
	// At and Seq pin the pending event's captured position.
	At  sim.Time
	Seq uint64
}

// pump is one live self-rescheduling loop.
type pump struct {
	arm   PumpArm
	rng   *sim.Rand   // poisson source, nil otherwise
	event func()      // what the pending event runs when it fires
	start func()      // initial arming, invoked by World.Start
	id    sim.EventID // the pending event, refreshed on every re-arm
	nextK uint64      // presence scheduler position
}

func (w *World) addPump(pu *pump) *pump {
	w.pumps = append(w.pumps, pu)
	return pu
}

// rearm schedules the pump's pending event back at its captured
// position through the shared re-arm set.
func (pu *pump) rearm(w *World, set *sim.RearmSet) {
	at := pu.arm.At
	set.Add(at, pu.arm.Seq, func() { pu.id = w.Sim.K.At(at, pu.event) })
}

// bulkPump keeps a saturating master-to-slave pump running on the
// link to slave (0-based): depth packets queued, refilled every two
// slots.
func (w *World) bulkPump(p *PiconetState, slave, depth, chunkBytes int) *pump {
	link := p.Links[slave]
	master := p.Master
	chunk := make([]byte, chunkBytes)
	pu := &pump{
		arm: PumpArm{Kind: pumpBulk, Piconet: p.Index, Slave: slave, Depth: depth, Bytes: chunkBytes},
	}
	var fire func()
	fire = func() {
		for link.QueueLen() < depth {
			link.Send(chunk, packet.LLIDL2CAPStart)
		}
		pu.id = master.After(2, fire)
	}
	pu.event = fire
	pu.start = fire
	return w.addPump(pu)
}

// poissonPump sends burst-byte sends with exponentially distributed
// gaps (mean slots) on the link to slave, drawing from rng.
func (w *World) poissonPump(p *PiconetState, slave int, mean float64, burst int, rng *sim.Rand) *pump {
	link := p.Links[slave]
	master := p.Master
	pu := &pump{
		arm: PumpArm{Kind: pumpPoisson, Piconet: p.Index, Slave: slave, Bytes: burst, MeanGap: mean},
		rng: rng,
	}
	zeros := make([]byte, burst) // Send copies; every burst shares it
	var arm func()
	send := func() {
		link.Send(zeros, packet.LLIDL2CAPStart)
		arm()
	}
	arm = func() {
		gap := uint64(math.Ceil(-mean * math.Log(1-rng.Float64())))
		if gap < 1 {
			gap = 1
		}
		pu.id = master.After(gap, send)
	}
	pu.event = send // the pending event is the send, the gap already drawn
	pu.start = arm
	return w.addPump(pu)
}

// flowPump streams SDUs from flow idx's origin toward its destination,
// gated on the first-hop baseband queue.
func (w *World) flowPump(idx, sduBytes, pumpDepth int) *pump {
	f := w.Flows[idx]
	src := w.nodes[f.From]
	hop, ok := src.next[f.To]
	if !ok {
		panic("netspec: no route from " + f.From + " to " + f.To)
	}
	ch := src.chans[hop]
	payload := make([]byte, sduBytes)
	pu := &pump{
		arm: PumpArm{Kind: pumpFlow, Flow: idx, Depth: pumpDepth, Bytes: sduBytes},
	}
	var tick func()
	tick = func() {
		if ch.Link().QueueLen() < pumpDepth {
			ch.Send(encodeFrame(uint8(idx), f.To, w.Sim.Now(), payload))
			f.SentBytes += len(payload)
		}
		pu.id = src.dev.After(2, tick)
	}
	pu.event = tick
	pu.start = tick
	return w.addPump(pu)
}

// classifierPump runs the adaptive channel-assessment loop on p's
// master every assessment window.
func (w *World) classifierPump(p *PiconetState) *pump {
	win := uint64(p.spec.AssessWindowSlots)
	pu := &pump{
		arm: PumpArm{Kind: pumpClassifier, Piconet: p.Index},
	}
	var tick func()
	tick = func() {
		w.classify(p)
		pu.id = p.Master.After(win, tick)
	}
	pu.event = tick
	pu.start = func() {
		p.Master.ResetAssessment()
		pu.id = p.Master.After(win, tick)
	}
	return w.addPump(pu)
}

// schedPump runs the bridge presence scheduler: at every half-period
// boundary of the grid the bridge retunes to the membership whose
// window opens there. Scheduled on the kernel directly — membership
// switches must survive the state-generation bumps they themselves
// cause.
func (w *World) schedPump(b *BridgeState) *pump {
	half := uint64(b.spec.PresencePeriodSlots) * sim.SlotTicks / 2
	pu := &pump{arm: PumpArm{Kind: pumpSched, Bridge: b.Index}}
	var step func()
	step = func() {
		k := pu.nextK
		b.activate(int(k % 2))
		pu.nextK = k + 1
		pu.id = w.Sim.K.At(sim.Time(b.t0+(k+1)*half), step)
	}
	pu.event = step
	pu.start = func() {
		now := uint64(w.Sim.K.Now())
		k := uint64(0)
		if now >= b.t0 {
			k = (now-b.t0)/half + 1
		}
		pu.nextK = k
		pu.id = w.Sim.K.At(sim.Time(b.t0+k*half), step)
	}
	return w.addPump(pu)
}

// drainPump moves frames from the bridge's active store-and-forward
// queue into its link every two slots.
func (w *World) drainPump(b *BridgeState) *pump {
	pu := &pump{arm: PumpArm{Kind: pumpDrain, Bridge: b.Index}}
	var tick func()
	tick = func() {
		b.drain()
		pu.id = b.Dev.After(2, tick)
	}
	pu.event = tick
	pu.start = tick
	return w.addPump(pu)
}
