package netspec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/baseband"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/hop"
	"repro/internal/l2cap"
	"repro/internal/lmp"
	"repro/internal/sim"
)

// Checkpoint/restore for a built world. A campaign settles one world
// through paging, LMP negotiation and traffic warm-up, snapshots it
// once, and forks every replica and what-if arm from that one
// in-memory capture — skipping the settle phase entirely. The capture
// wraps the core checkpoint (kernel clock, RNG streams, devices,
// pending baseband timers) with everything the netspec layer owns: LMP
// setup state, L2CAP channel identities and relay wiring, bridge
// presence grids and store-and-forward queues, classifier verdicts,
// and the exact pending position of every traffic pump.
//
// The measurement protocol mirrors ResetMetrics: window accumulators
// (delivered bytes, latency samples, meters) are not captured — a
// forked arm calls ResetMetrics right after restore, and the straight
// arm calls it at the same instant, so both windows measure only
// post-fork behaviour. The one lifetime counter Metrics reads
// un-baselined, MapUpdates, is captured.

// PiconetCheckpoint is one piconet's netspec-layer state.
type PiconetCheckpoint struct {
	// MasterLMP and SlaveLMPs are the link managers' setup state (nil
	// for a detached piconet).
	MasterLMP []lmp.LinkSetup
	SlaveLMPs [][]lmp.LinkSetup
	// MapUpdates is the lifetime adaptive-install counter.
	MapUpdates int
	// Bad, Rate and Quiet are the classifier's verdicts; Cur is the
	// installed map's LMP bitmask (nil = full 79-channel set).
	Bad   [hop.NumChannels]bool
	Rate  [hop.NumChannels]float64
	Quiet [hop.NumChannels]int
	Cur   []byte
}

// MembershipCheckpoint is one bridge attachment.
type MembershipCheckpoint struct {
	Piconet          int
	ClockOffset      uint32
	AFHMap           []byte // LMP bitmask; nil = full set
	SniffOffset      int
	AttemptEvenSlots int
}

// QueuedFrame is one captured store-and-forward entry.
type QueuedFrame struct {
	SDU []byte
	At  uint64
}

// BridgeCheckpoint is one bridge's presence grid, memberships and
// backlog.
type BridgeCheckpoint struct {
	T0      uint64
	Active  int
	LMP     []lmp.LinkSetup
	Members [2]MembershipCheckpoint
	Queues  [2][]QueuedFrame
}

// NodeCheckpoint is one relay participant: its L2CAP state and the
// neighbour attach order (which fixes route computation and is not
// reproducible structurally — channel setup races decide it).
type NodeCheckpoint struct {
	Name  string
	Peers []string
	Mux   *l2cap.MuxCheckpoint
}

// VoiceCheckpoint locates one SCO stream's reservation ends by their
// positions in the devices' SCO link lists.
type VoiceCheckpoint struct {
	Piconet, Slave      int
	MasterIdx, SlaveIdx int
}

// WorldCheckpoint is a full capture of a built (and possibly started)
// world at a quiescent instant.
type WorldCheckpoint struct {
	Spec    Spec
	Core    *core.Checkpoint
	Started bool

	Piconets []PiconetCheckpoint
	Bridges  []BridgeCheckpoint
	Nodes    []NodeCheckpoint
	Voices   []VoiceCheckpoint
	Flows    []FlowSpec
	Pumps    []PumpArm
}

// upperQuiescent reports whether every protocol layer above baseband is
// between transactions: no LMP request awaiting its answer, no deferred
// mode-change, no L2CAP handshake in flight.
func (w *World) upperQuiescent() bool {
	for _, p := range w.Piconets {
		if p.LMP != nil && !p.LMP.Quiescent() {
			return false
		}
		for _, lm := range p.slaveLMPs {
			if !lm.Quiescent() {
				return false
			}
		}
	}
	for _, b := range w.Bridges {
		if !b.LMP.Quiescent() {
			return false
		}
	}
	for _, nd := range w.nodes {
		if !nd.mux.Quiescent() {
			return false
		}
	}
	return true
}

// attachedLinks enumerates d's links deterministically: AM_ADDR 1..7,
// then the slave-side master link, then extras — exactly the order
// baseband's device checkpoint captures them in.
func attachedLinks(d *baseband.Device, extra ...*baseband.Link) []*baseband.Link {
	var out []*baseband.Link
	links := d.Links()
	for am := uint8(1); am <= 7; am++ {
		if l := links[am]; l != nil {
			out = append(out, l)
		}
	}
	if l := d.MasterLink(); l != nil {
		out = append(out, l)
	}
	return append(out, extra...)
}

// linkTo finds the link whose peer is addr.
func linkTo(links []*baseband.Link, addr baseband.BDAddr) *baseband.Link {
	for _, l := range links {
		if l.Peer == addr {
			return l
		}
	}
	return nil
}

// scoIndex locates sco in d's SCO link list.
func scoIndex(d *baseband.Device, sco *baseband.SCOLink) (int, error) {
	for i, s := range d.SCOLinks() {
		if s == sco {
			return i, nil
		}
	}
	return 0, fmt.Errorf("netspec: SCO link not found on %s", d.Name())
}

// Snapshot captures the world at the nearest quiescent slot edge. The
// probe may advance simulated time (the pumps keep running); the
// returned checkpoint's Core.At is the capture instant.
func (w *World) Snapshot() (*WorldCheckpoint, error) {
	extra := make(map[string][]*baseband.Link)
	for _, b := range w.Bridges {
		// The suspended membership's link is detached from the radio;
		// it must ride the bridge device's capture explicitly.
		extra[b.Dev.Name()] = []*baseband.Link{b.Members[1-b.active].Link}
	}
	cck, err := w.Sim.Snapshot(extra, w.upperQuiescent)
	if err != nil {
		return nil, err
	}
	ck := &WorldCheckpoint{Spec: w.spec, Core: cck, Started: w.started}

	for _, p := range w.Piconets {
		pc := PiconetCheckpoint{
			MapUpdates: p.MapUpdates,
			Bad:        p.bad, Rate: p.rate, Quiet: p.quiet,
		}
		if p.cur != nil {
			pc.Cur = p.cur.Bitmask()
		}
		if p.LMP != nil {
			if pc.MasterLMP, err = p.LMP.Checkpoint(attachedLinks(p.Master)); err != nil {
				return nil, err
			}
			for j, lm := range p.slaveLMPs {
				ls, err := lm.Checkpoint(attachedLinks(p.Slaves[j]))
				if err != nil {
					return nil, err
				}
				pc.SlaveLMPs = append(pc.SlaveLMPs, ls)
			}
		}
		ck.Piconets = append(ck.Piconets, pc)
	}

	for _, b := range w.Bridges {
		bc := BridgeCheckpoint{T0: b.t0, Active: b.active}
		blinks := []*baseband.Link{b.Members[0].Link, b.Members[1].Link}
		if bc.LMP, err = b.LMP.Checkpoint(blinks); err != nil {
			return nil, err
		}
		for mi, m := range b.Members {
			mc := MembershipCheckpoint{
				Piconet:          m.Piconet,
				ClockOffset:      m.BB.ClockOffset(),
				SniffOffset:      m.SniffOffset,
				AttemptEvenSlots: m.AttemptEvenSlots,
			}
			if afh := m.BB.AFHMap(); afh != nil {
				mc.AFHMap = afh.Bitmask()
			}
			bc.Members[mi] = mc
			for _, f := range b.q[mi] {
				bc.Queues[mi] = append(bc.Queues[mi],
					QueuedFrame{SDU: append([]byte(nil), f.sdu...), At: f.at})
			}
		}
		ck.Bridges = append(ck.Bridges, bc)
	}

	if w.nodes != nil {
		for _, name := range w.nodeOrder() {
			nd := w.nodes[name]
			var extras []*baseband.Link
			if nd.bridge != nil {
				extras = extra[name]
			}
			mc, err := nd.mux.Checkpoint(attachedLinks(nd.dev, extras...))
			if err != nil {
				return nil, err
			}
			ck.Nodes = append(ck.Nodes, NodeCheckpoint{
				Name:  name,
				Peers: append([]string(nil), nd.peers...),
				Mux:   mc,
			})
		}
	}

	for _, v := range w.Voices {
		p := w.Piconets[v.Piconet]
		vc := VoiceCheckpoint{Piconet: v.Piconet, Slave: v.Slave}
		if vc.MasterIdx, err = scoIndex(p.Master, v.MasterSCO); err != nil {
			return nil, err
		}
		if vc.SlaveIdx, err = scoIndex(p.Slaves[v.Slave-1], v.SlaveSCO); err != nil {
			return nil, err
		}
		ck.Voices = append(ck.Voices, vc)
	}

	for _, f := range w.Flows {
		ck.Flows = append(ck.Flows, f.FlowSpec)
	}

	for _, pu := range w.pumps {
		arm := pu.arm
		at, seq, ok := w.Sim.K.EventInfo(pu.id)
		if !ok {
			return nil, fmt.Errorf("netspec: pump kind %d has no pending event at the capture instant", arm.Kind)
		}
		arm.At, arm.Seq = at, seq
		if pu.rng != nil {
			arm.RNG = pu.rng.State()
		}
		arm.NextK = pu.nextK
		ck.Pumps = append(ck.Pumps, arm)
	}
	return ck, nil
}

// RestoreWorld rebuilds ck's world on a freshly constructed Simulation
// (same Options the original was built with). The spec-driven
// construction is replayed without any paging or negotiation — devices,
// links, timers and RNG streams are imposed from the capture, protocol
// managers and relay closures are re-created and re-wired, and every
// pending event is re-armed in its exact captured order. With
// opt.ForkSeed zero the restored world continues byte-identically to a
// straight run; a nonzero seed perturbs every RNG stream of the arm.
// RestoreWorld only reads ck, and the restored world writes nothing it
// shares with ck (it keeps ck.Spec, read-only), so any number of
// restores, concurrent ones included, may share one capture.
func RestoreWorld(s *core.Simulation, ck *WorldCheckpoint, opt core.RestoreOptions) (*World, error) {
	if err := ck.validate(); err != nil {
		return nil, err
	}
	spec := ck.Spec
	w := &World{Sim: s, spec: spec, owner: make(map[string]int)}

	// Geometry and medium configuration must precede core.Restore, which
	// re-tunes the restored radios: positions are name-keyed and the
	// layout stream is derived (never advances the root RNG), so the
	// placement of the original build is reproduced exactly.
	if spec.Placement != nil {
		w.layout = spec.layout(s.DerivedRand("netspec.placement"))
		s.Ch.EnableSpatial(channel.SpatialConfig{
			RangeM:        spec.Placement.RangeM,
			InterferenceM: spec.Placement.InterferenceM,
		})
		for i := range spec.Piconets {
			sp := spec.Piconets[i]
			s.Ch.Place(sp.Name+".master", w.layout[i].master)
			for j := 0; j < sp.Slaves; j++ {
				s.Ch.Place(fmt.Sprintf("%s.slave%d", sp.Name, j+1), w.layout[i].slaves[j])
			}
		}
		for i := range spec.Bridges {
			sp := spec.Bridges[i]
			s.Ch.Place(BridgeName(i), bridgePosition(w.layout[sp.A].master, w.layout[sp.B].master))
		}
	}
	s.Ch.SetCollisionHook(w.onCollision)
	for _, j := range spec.Jammers {
		s.Ch.AddJammer(j.Lo, j.Hi, j.Duty)
	}

	set := &sim.RearmSet{}
	links, err := s.Restore(ck.Core, opt, set)
	if err != nil {
		return nil, err
	}

	for i := range spec.Piconets {
		sp := spec.Piconets[i]
		pc := &ck.Piconets[i]
		p := &PiconetState{Index: i, spec: sp}
		mname := sp.Name + ".master"
		if p.Master = s.Device(mname); p.Master == nil {
			return nil, fmt.Errorf("netspec: restored world is missing %s", mname)
		}
		w.owner[mname] = i
		for j := 0; j < sp.Slaves; j++ {
			sname := fmt.Sprintf("%s.slave%d", sp.Name, j+1)
			sl := s.Device(sname)
			if sl == nil {
				return nil, fmt.Errorf("netspec: restored world is missing %s", sname)
			}
			w.owner[sname] = i
			p.Slaves = append(p.Slaves, sl)
		}
		p.MapUpdates = pc.MapUpdates
		p.bad, p.rate, p.quiet = pc.Bad, pc.Rate, pc.Quiet
		if pc.Cur != nil {
			if p.cur, err = hop.FromBitmask(pc.Cur); err != nil {
				return nil, err
			}
		}
		if !sp.Detached {
			mlinks := links[mname]
			for _, sl := range p.Slaves {
				l := linkTo(mlinks, sl.Addr())
				if l == nil {
					return nil, fmt.Errorf("netspec: restored %s has no link to %s", mname, sl.Name())
				}
				p.Links = append(p.Links, l)
			}
			p.LMP = lmp.Attach(p.Master)
			if err := p.LMP.RestoreSetup(mlinks, pc.MasterLMP); err != nil {
				return nil, err
			}
			for j, sl := range p.Slaves {
				lm := lmp.Attach(sl)
				p.slaveLMPs = append(p.slaveLMPs, lm)
				if err := lm.RestoreSetup(links[sl.Name()], pc.SlaveLMPs[j]); err != nil {
					return nil, err
				}
			}
			p.Received = make([]int, len(p.Slaves))
			for j, sl := range p.Slaves {
				idx, pp := j, p
				sl.OnData = func(_ *baseband.Link, payload []byte, _ uint8) {
					pp.Received[idx] += len(payload)
				}
			}
		}
		w.Piconets = append(w.Piconets, p)
	}

	for i := range spec.Bridges {
		sp := spec.Bridges[i]
		bc := &ck.Bridges[i]
		d := s.Device(BridgeName(i))
		if d == nil {
			return nil, fmt.Errorf("netspec: restored world is missing %s", BridgeName(i))
		}
		b := &BridgeState{
			Index: i, Dev: d, LMP: lmp.Attach(d), spec: sp, world: w,
			t0: bc.T0, active: bc.Active,
		}
		w.adoptDevice(d, sp.A)
		blinks := links[d.Name()]
		for mi := range b.Members {
			mc := &bc.Members[mi]
			p := w.Piconets[mc.Piconet]
			bl := linkTo(blinks, p.Master.Addr())
			ml := linkTo(links[p.Master.Name()], d.Addr())
			if bl == nil || ml == nil {
				return nil, fmt.Errorf("netspec: restored %s has no link pair with %s", d.Name(), p.Master.Name())
			}
			var afh *hop.ChannelMap
			if mc.AFHMap != nil {
				if afh, err = hop.FromBitmask(mc.AFHMap); err != nil {
					return nil, err
				}
			}
			b.Members[mi] = &Membership{
				Piconet: mc.Piconet, Link: bl, MasterLink: ml,
				BB:          baseband.RestoreMembership(bl, mc.ClockOffset, afh),
				SniffOffset: mc.SniffOffset, AttemptEvenSlots: mc.AttemptEvenSlots,
				clockOffset: mc.ClockOffset,
			}
			for _, f := range bc.Queues[mi] {
				b.q[mi] = append(b.q[mi], queuedFrame{sdu: append([]byte(nil), f.SDU...), at: f.At})
			}
		}
		if err := b.LMP.RestoreSetup(blinks, bc.LMP); err != nil {
			return nil, err
		}
		b.QueueDepth.Observe(b.depth(), s.Now())
		w.Bridges = append(w.Bridges, b)
	}

	if len(ck.Nodes) > 0 {
		w.nodes = make(map[string]*node)
		w.names = make(map[baseband.BDAddr]string)
		for i := range ck.Nodes {
			nc := &ck.Nodes[i]
			d := s.Device(nc.Name)
			if d == nil {
				return nil, fmt.Errorf("netspec: restored world is missing relay node %s", nc.Name)
			}
			nd := w.addNode(d)
			if err := nd.mux.Restore(links[nc.Name], nc.Mux); err != nil {
				return nil, err
			}
		}
		for _, b := range w.Bridges {
			nd := w.nodes[b.Dev.Name()]
			nd.bridge = b
			b.node = nd
		}
		// Re-register relay channels in each node's captured attach
		// order: the order decides route computation and SDU fan-out.
		for i := range ck.Nodes {
			nc := &ck.Nodes[i]
			nd := w.nodes[nc.Name]
			for _, peer := range nc.Peers {
				pd := s.Device(peer)
				if pd == nil {
					return nil, fmt.Errorf("netspec: node %s references unknown peer %s", nc.Name, peer)
				}
				l := linkTo(links[nc.Name], pd.Addr())
				if l == nil {
					return nil, fmt.Errorf("netspec: node %s has no link to peer %s", nc.Name, peer)
				}
				chs := nd.mux.Channels(l)
				if len(chs) != 1 {
					return nil, fmt.Errorf("netspec: node %s has %d channels to %s, want 1", nc.Name, len(chs), peer)
				}
				w.registerChannel(nd, chs[0])
			}
		}
		for _, b := range w.Bridges {
			for _, m := range b.Members {
				m.Out = b.node.chans[w.names[m.Link.Peer]]
			}
		}
		w.buildRoutes()
	}

	for _, fs := range ck.Flows {
		w.Flows = append(w.Flows, &Flow{FlowSpec: fs})
	}

	for i := range ck.Voices {
		vc := &ck.Voices[i]
		p := w.Piconets[vc.Piconet]
		sl := p.Slaves[vc.Slave-1]
		msc, ssc := p.Master.SCOLinks(), sl.SCOLinks()
		if vc.MasterIdx >= len(msc) || vc.SlaveIdx >= len(ssc) {
			return nil, fmt.Errorf("netspec: voice stream %d references missing SCO links", i)
		}
		v := &Voice{
			Piconet: vc.Piconet, Slave: vc.Slave,
			MasterSCO: msc[vc.MasterIdx], SlaveSCO: ssc[vc.SlaveIdx],
		}
		wireVoice(v)
		w.Voices = append(w.Voices, v)
	}

	for i := range ck.Pumps {
		pu, err := w.restorePump(ck.Pumps[i], opt.ForkSeed)
		if err != nil {
			return nil, err
		}
		pu.rearm(w, set)
	}

	w.started = ck.Started
	set.Execute()
	w.chBase = s.Ch.Stats()
	w.resetAt = s.Now()
	return w, nil
}

// restorePump rebuilds one pump's closure from its descriptor.
func (w *World) restorePump(arm PumpArm, forkSeed uint64) (*pump, error) {
	var pu *pump
	switch arm.Kind {
	case pumpBulk:
		pu = w.bulkPump(w.Piconets[arm.Piconet], arm.Slave, arm.Depth, arm.Bytes)
	case pumpPoisson:
		rng := sim.NewRand(1)
		rng.SetState(sim.ForkState(arm.RNG, forkSeed))
		pu = w.poissonPump(w.Piconets[arm.Piconet], arm.Slave, arm.MeanGap, arm.Bytes, rng)
	case pumpFlow:
		pu = w.flowPump(arm.Flow, arm.Bytes, arm.Depth)
	case pumpClassifier:
		pu = w.classifierPump(w.Piconets[arm.Piconet])
	case pumpSched:
		pu = w.schedPump(w.Bridges[arm.Bridge])
		pu.nextK = arm.NextK
	case pumpDrain:
		pu = w.drainPump(w.Bridges[arm.Bridge])
	default:
		return nil, fmt.Errorf("netspec: unknown pump kind %d", arm.Kind)
	}
	pu.arm = arm
	return pu, nil
}

// validate bounds-checks a checkpoint's cross-references, so a decoded
// capture either restores or fails cleanly.
func (ck *WorldCheckpoint) validate() error {
	if ck.Core == nil {
		return fmt.Errorf("netspec: checkpoint has no core capture")
	}
	// A restored world that was captured before Start runs its spec's
	// traffic later, which relies on the spec having validated.
	if err := ck.Spec.validate(); err != nil {
		return err
	}
	// Start runs the spec's flow stanzas in order, so a started capture
	// holds exactly those flows and an unstarted one none.
	var flows []FlowSpec
	for _, t := range ck.Spec.Traffic {
		if ck.Started && t.Kind == TrafficFlow {
			flows = append(flows, FlowSpec{From: t.From, To: t.To})
		}
	}
	if !slices.Equal(ck.Flows, flows) {
		return fmt.Errorf("netspec: checkpoint flows do not match the spec's flow stanzas")
	}
	np, nb, nf := len(ck.Spec.Piconets), len(ck.Spec.Bridges), len(ck.Flows)
	if len(ck.Piconets) != np {
		return fmt.Errorf("netspec: checkpoint has %d piconet captures for %d stanzas", len(ck.Piconets), np)
	}
	if len(ck.Bridges) != nb {
		return fmt.Errorf("netspec: checkpoint has %d bridge captures for %d stanzas", len(ck.Bridges), nb)
	}
	for i := range ck.Bridges {
		bc := &ck.Bridges[i]
		if bc.Active != 0 && bc.Active != 1 {
			return fmt.Errorf("netspec: bridge %d active membership %d out of range", i, bc.Active)
		}
		for _, mc := range bc.Members {
			if mc.Piconet < 0 || mc.Piconet >= np {
				return fmt.Errorf("netspec: bridge %d references piconet %d", i, mc.Piconet)
			}
		}
	}
	for i := range ck.Voices {
		vc := &ck.Voices[i]
		if vc.Piconet < 0 || vc.Piconet >= np {
			return fmt.Errorf("netspec: voice %d references piconet %d", i, vc.Piconet)
		}
		sp := &ck.Spec.Piconets[vc.Piconet]
		if vc.Slave < 1 || vc.Slave > sp.Slaves {
			return fmt.Errorf("netspec: voice %d references slave %d", i, vc.Slave)
		}
		if vc.MasterIdx < 0 || vc.SlaveIdx < 0 {
			return fmt.Errorf("netspec: voice %d has negative SCO index", i)
		}
	}
	for i := range ck.Pumps {
		arm := &ck.Pumps[i]
		switch arm.Kind {
		case pumpBulk, pumpPoisson, pumpClassifier:
			if arm.Piconet < 0 || arm.Piconet >= np {
				return fmt.Errorf("netspec: pump %d references piconet %d", i, arm.Piconet)
			}
			if arm.Kind != pumpClassifier {
				if arm.Slave < 0 || arm.Slave >= ck.Spec.Piconets[arm.Piconet].Slaves {
					return fmt.Errorf("netspec: pump %d references slave %d", i, arm.Slave)
				}
			}
		case pumpFlow:
			if arm.Flow < 0 || arm.Flow >= nf {
				return fmt.Errorf("netspec: pump %d references flow %d", i, arm.Flow)
			}
		case pumpSched, pumpDrain:
			if arm.Bridge < 0 || arm.Bridge >= nb {
				return fmt.Errorf("netspec: pump %d references bridge %d", i, arm.Bridge)
			}
		default:
			return fmt.Errorf("netspec: pump %d has unknown kind %d", i, arm.Kind)
		}
	}
	return nil
}

// Encode serializes the checkpoint (gob). No fork path uses it: forks
// restore from the in-memory capture. It and DecodeCheckpoint remain
// only because btbench's checkpoint probe times them (its
// netspec.encode_us and netspec.decode_us metrics); both are to be
// deleted together with those two metrics.
func (ck *WorldCheckpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses bytes from Encode; it exists only for the
// same probe (see Encode). Arbitrary input returns an error, never
// panics.
func DecodeCheckpoint(b []byte) (ck *WorldCheckpoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			ck, err = nil, fmt.Errorf("netspec: malformed checkpoint: %v", r)
		}
	}()
	var out WorldCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&out); err != nil {
		return nil, fmt.Errorf("netspec: malformed checkpoint: %w", err)
	}
	if err := out.validate(); err != nil {
		return nil, err
	}
	return &out, nil
}
