package netspec

import (
	"repro/internal/baseband"
)

// Voice is one running SCO voice stream (master to slave) with its
// delivery accounting.
type Voice struct {
	// Piconet and Slave (1-based) locate the stream.
	Piconet, Slave int
	// MasterSCO and SlaveSCO are the two reservation ends.
	MasterSCO, SlaveSCO *baseband.SCOLink

	perfect                     int
	baseTx, baseRx, basePerfect int
}

// TxFrames, RxFrames and BitPerfect report the current measurement
// window's frame counts.
func (v *Voice) TxFrames() int   { return v.MasterSCO.TxFrames - v.baseTx }
func (v *Voice) RxFrames() int   { return v.SlaveSCO.RxFrames - v.baseRx }
func (v *Voice) BitPerfect() int { return v.perfect - v.basePerfect }

// voicePattern fills outgoing voice frames; a garbled byte marks a
// residual error at the sink.
const voicePattern = byte(0x5A)

// Start fires every Traffic stanza of the spec: bulk/voice/poisson
// sources piconet by piconet (each piconet's adaptive classifier, when
// configured, arms right after its pumps, so classification sees the
// pumped traffic from slot one), then the end-to-end flows in stanza
// order. Call it once, after Build and any caller-side warm-up.
func (w *World) Start() {
	if w.started {
		panic("netspec: World.Start called twice")
	}
	w.started = true
	for _, p := range w.Piconets {
		if p.spec.Detached {
			continue
		}
		for ti := range w.spec.Traffic {
			t := &w.spec.Traffic[ti]
			if t.Kind == TrafficFlow || (t.Piconet != AllPiconets && t.Piconet != p.Index) {
				continue
			}
			switch t.Kind {
			case TrafficBulk:
				w.startBulk(p, t)
			case TrafficVoice:
				w.startVoice(p, t)
			case TrafficPoisson:
				w.startPoisson(p, t)
			}
		}
		if p.spec.AFH == AFHAdaptive {
			w.startClassifier(p)
		}
	}
	for ti := range w.spec.Traffic {
		t := &w.spec.Traffic[ti]
		if t.Kind == TrafficFlow {
			w.startFlow(FlowSpec{From: t.From, To: t.To}, t.SDUBytes, t.PumpDepth)
		}
	}
}

// targetLinks returns the stanza's target links within p, with their
// slave indices (0-based).
func (w *World) targetLinks(p *PiconetState, t *Traffic) ([]int, []*baseband.Link) {
	var idx []int
	var links []*baseband.Link
	for j, l := range p.Links {
		if t.Slave != 0 && j != t.Slave-1 {
			continue
		}
		idx = append(idx, j)
		links = append(links, l)
	}
	return idx, links
}

// startBulk arms a saturating master-to-slave pump on every targeted
// link: PumpDepth packets queued, refilled every two slots.
func (w *World) startBulk(p *PiconetState, t *Traffic) {
	idx, links := w.targetLinks(p, t)
	for k, l := range links {
		l.PacketType = t.PacketType
		w.bulkPump(p, idx[k], t.PumpDepth, t.PacketType.MaxPayload()).start()
	}
}

// startVoice reserves the stanza's SCO channels and wires the
// patterned source and counting sink, one stream per targeted slave
// (reservation offsets spread by slave, as validated).
func (w *World) startVoice(p *PiconetState, t *Traffic) {
	idx, links := w.targetLinks(p, t)
	for k, l := range links {
		j := idx[k]
		v := &Voice{Piconet: p.Index, Slave: j + 1}
		v.MasterSCO = p.Master.AddSCO(l, t.PacketType, t.TscoSlots, t.DscoEven+k)
		v.SlaveSCO = p.Slaves[j].AcceptSCO(t.PacketType, t.TscoSlots, t.DscoEven+k)
		wireVoice(v)
		w.Voices = append(w.Voices, v)
	}
}

// wireVoice points the stream's reservation ends at the patterned
// source and the counting sink (shared by Start and checkpoint
// restore, which rebuilds the closures on restored SCO links).
func wireVoice(v *Voice) {
	size := v.MasterSCO.Type.MaxPayload()
	v.MasterSCO.Source = func() []byte {
		f := make([]byte, size)
		for i := range f {
			f[i] = voicePattern
		}
		return f
	}
	v.SlaveSCO.Sink = func(f []byte) {
		for _, by := range f {
			if by != voicePattern {
				return
			}
		}
		v.perfect++
	}
}

// startPoisson arms an exponential-gap burst source on every targeted
// link. Each source draws from its own split of the simulation's RNG
// (derived here, in deterministic stanza-then-link order), so the
// world stays bit-reproducible.
func (w *World) startPoisson(p *PiconetState, t *Traffic) {
	idx, links := w.targetLinks(p, t)
	for k, l := range links {
		l.PacketType = t.PacketType
		w.poissonPump(p, idx[k], t.MeanGapSlots, t.BurstBytes, w.Sim.SplitRand()).start()
	}
}

// startFlow arms one origin's SDU stream toward its destination, gated
// on its first-hop baseband queue so backpressure propagates to the
// bridges instead of piling up at the source link. Spec validation
// guarantees a bridged world, relay-node endpoints joined by a route
// and at most maxFlows flows.
func (w *World) startFlow(spec FlowSpec, sduBytes, pumpDepth int) {
	idx := len(w.Flows)
	w.Flows = append(w.Flows, &Flow{FlowSpec: spec})
	w.flowPump(idx, sduBytes, pumpDepth).start()
}
