package netspec

import (
	"fmt"

	"repro/internal/baseband"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/hop"
	"repro/internal/lmp"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PiconetState is one built master-plus-slaves group inside the world.
type PiconetState struct {
	// Index is the piconet's position in World.Piconets (and its
	// identity in the spec).
	Index int
	// Master owns the piconet; its BD_ADDR drives the hop sequence.
	Master *baseband.Device
	// Slaves in AM_ADDR order.
	Slaves []*baseband.Device
	// Links are the master-side ACL links, one per slave (nil for a
	// detached piconet).
	Links []*baseband.Link
	// LMP is the master's link manager (slaves carry their own
	// responders internally; nil for a detached piconet).
	LMP *lmp.Manager
	// Received counts payload bytes delivered to each slave since the
	// last ResetMetrics (unused once a relay takes over the data path).
	Received []int
	// MapUpdates counts adaptive channel-map installs.
	MapUpdates int

	spec      Piconet
	slaveLMPs []*lmp.Manager
	bad       [hop.NumChannels]bool
	rate      [hop.NumChannels]float64 // last observed error fraction
	quiet     [hop.NumChannels]int     // consecutive windows bad with no evidence
	cur       *hop.ChannelMap          // nil = full 79-channel set
}

// CurrentMap returns the channel map the piconet currently hops on
// (nil = the full 79-channel set).
func (p *PiconetState) CurrentMap() *hop.ChannelMap { return p.cur }

// World is a built spec: every piconet, bridge, traffic source and
// probe of the description, standing on one shared medium.
type World struct {
	// Sim owns the kernel and the shared channel.
	Sim *core.Simulation
	// Piconets in build order.
	Piconets []*PiconetState
	// Bridges in stanza order (empty without Bridge stanzas).
	Bridges []*BridgeState
	// Flows are the running end-to-end flows, in start order.
	Flows []*Flow
	// Voices are the running SCO voice streams, in start order.
	Voices []*Voice

	// InterCollisions counts collision pairs whose transmitters belong
	// to different piconets; IntraCollisions counts same-piconet pairs
	// (TDD makes those rare). Reset by ResetMetrics.
	InterCollisions int
	IntraCollisions int
	// DeliveredBytes is the SDU payload total delivered at flow
	// destinations since the last ResetMetrics.
	DeliveredBytes int
	// E2ELatency samples end-to-end delivery latency in slots.
	E2ELatency stats.Sample
	// RouteMisses counts frames dropped for lack of a route.
	RouteMisses int

	spec    Spec
	layout  []piconetLayout // computed positions (nil without Placement)
	owner   map[string]int  // device name -> piconet index
	nodes   map[string]*node
	names   map[baseband.BDAddr]string
	pumps   []*pump // registered self-rescheduling loops, in start order
	started bool
	chBase  channel.Stats // channel counters at the last ResetMetrics
	resetAt uint64        // slot of the last ResetMetrics
}

// Build compiles the spec onto s: device creation with derived
// BD_ADDRs, sequential paging of every connected piconet, LMP managers
// on both ends of every link, bridges with their presence schedules and
// relay channels, jammers and power modes. Traffic (and adaptive
// classification) starts with World.Start. A malformed spec returns a
// *StanzaError naming the offending stanza; construction itself panics
// only on radio-level failure, which cannot happen at BER 0 with sane
// parameters. Build advances simulated time: paging, channel setup and
// LMP negotiation all happen on the air.
func Build(s *core.Simulation, spec Spec) (*World, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	w := &World{
		Sim:   s,
		spec:  spec,
		owner: make(map[string]int),
	}
	if spec.Placement != nil {
		// The layout draws from a stream derived from the seed without
		// advancing the root RNG, so device seeds and clock phases stay
		// exactly those of a placement-free world on the same seed.
		w.layout = spec.layout(s.DerivedRand("netspec.placement"))
		if err := w.checkBridgeReach(); err != nil {
			return nil, err
		}
		s.Ch.EnableSpatial(channel.SpatialConfig{
			RangeM:        spec.Placement.RangeM,
			InterferenceM: spec.Placement.InterferenceM,
		})
	}
	s.Ch.SetCollisionHook(w.onCollision)
	for i := range spec.Piconets {
		w.Piconets = append(w.Piconets, w.buildPiconet(i))
	}
	for _, p := range w.Piconets {
		if p.spec.AFH == AFHOracle {
			w.install(p, hop.ExcludeRange(p.spec.OracleLo, p.spec.OracleHi))
		}
	}
	if len(spec.Bridges) > 0 {
		w.buildRelay()
	}
	for _, j := range spec.Jammers {
		s.Ch.AddJammer(j.Lo, j.Hi, j.Duty)
	}
	for i := range spec.Modes {
		w.applyMode(&spec.Modes[i])
	}
	w.chBase = s.Ch.Stats()
	w.resetAt = s.Now()
	return w, nil
}

// MustBuild is Build for specs known to be valid; it panics on a
// validation error.
func MustBuild(s *core.Simulation, spec Spec) *World {
	w, err := Build(s, spec)
	if err != nil {
		panic(err)
	}
	return w
}

// buildPiconet creates piconet i's devices and, unless the stanza is
// detached, connects and attaches them.
func (w *World) buildPiconet(i int) *PiconetState {
	sp := w.spec.Piconets[i]
	p := &PiconetState{Index: i, spec: sp}
	mname := sp.Name + ".master"
	if w.layout != nil {
		w.Sim.Ch.Place(mname, w.layout[i].master)
	}
	p.Master = w.Sim.AddDevice(mname, baseband.Config{
		Addr: baseband.BDAddr{
			LAP: 0x1A0000 + uint32(i)*0x01357,
			UAP: uint8(0x10 + i),
			NAP: uint16(0x0100 + i),
		},
		// Default 1<<20: the pumped data is the poll; keep explicit
		// polls out of the way.
		TpollSlots: sp.TpollSlots,
	})
	w.owner[mname] = i
	for j := 0; j < sp.Slaves; j++ {
		sname := fmt.Sprintf("%s.slave%d", sp.Name, j+1)
		cfg := baseband.Config{
			Addr: baseband.BDAddr{
				LAP: 0x5B0000 + uint32(i)*0x02000 + uint32(j)*0x00111,
				UAP: uint8(0x80 + i*8 + j),
				NAP: uint16(0x0200 + i),
			},
			TpollSlots: sp.TpollSlots,
		}
		if !sp.R1PageScan {
			// Foreign piconets can collide with the page handshake; scan
			// continuously so retries land promptly.
			cfg.PageScanWindowSlots = 2048
			cfg.PageScanIntervalSlots = 2048
		}
		if w.layout != nil {
			w.Sim.Ch.Place(sname, w.layout[i].slaves[j])
		}
		sl := w.Sim.AddDevice(sname, cfg)
		w.owner[sname] = i
		p.Slaves = append(p.Slaves, sl)
	}
	if sp.Detached {
		return p
	}
	p.Links = w.Sim.BuildPiconet(p.Master, p.Slaves...)
	p.LMP = lmp.Attach(p.Master)
	for _, sl := range p.Slaves {
		p.slaveLMPs = append(p.slaveLMPs, lmp.Attach(sl))
	}
	p.Received = make([]int, len(p.Slaves))
	for j, sl := range p.Slaves {
		idx := j
		sl.OnData = func(_ *baseband.Link, payload []byte, _ uint8) {
			p.Received[idx] += len(payload)
		}
	}
	return p
}

// adoptDevice registers a device created outside the piconet build (a
// scatternet bridge) as belonging to piconet index for the collision
// attribution. A scatternet bridge belongs to two piconets at
// once; by convention the build books it under stanza field A, so its
// collision pairs split the same way its presence time does.
func (w *World) adoptDevice(d *baseband.Device, piconet int) {
	if piconet < 0 || piconet >= len(w.Piconets) {
		panic(fmt.Sprintf("netspec: piconet index %d out of range", piconet))
	}
	w.owner[d.Name()] = piconet
}

// onCollision attributes one collision pair to inter- or intra-piconet
// interference by the transmitters' owners.
func (w *World) onCollision(existing, incoming *channel.Transmission) {
	a, aok := w.owner[existing.From]
	b, bok := w.owner[incoming.From]
	if !aok || !bok {
		return
	}
	if a == b {
		w.IntraCollisions++
	} else {
		w.InterCollisions++
	}
}

// applyMode enters one PowerMode stanza's low-power mode on both ends
// of every targeted link, directly at baseband.
func (w *World) applyMode(m *PowerMode) {
	for _, p := range w.Piconets {
		if m.Piconet != AllPiconets && m.Piconet != p.Index {
			continue
		}
		if p.spec.Detached {
			continue
		}
		for j, l := range p.Links {
			if m.Slave != 0 && j != m.Slave-1 {
				continue
			}
			sl := p.Slaves[j].MasterLink()
			switch m.Kind {
			case SniffMode:
				l.EnterSniff(m.TsniffSlots, m.AttemptEvenSlots, 0)
				sl.EnterSniff(m.TsniffSlots, m.AttemptEvenSlots, 0)
			case HoldMode:
				l.EnterHoldRepeating(m.TholdSlots)
				sl.EnterHoldRepeating(m.TholdSlots)
			case ParkMode:
				l.EnterPark(m.BeaconSlots)
				sl.EnterPark(m.BeaconSlots)
			}
		}
	}
}

// runUntil advances the kernel in slot chunks until cond holds, or
// panics after limitSlots.
func (w *World) runUntil(limitSlots uint64, what string, cond func() bool) {
	deadline := w.Sim.K.Now() + sim.Time(sim.Slots(limitSlots))
	for !cond() && w.Sim.K.Now() < deadline {
		w.Sim.K.RunUntil(w.Sim.K.Now() + sim.Time(sim.Slots(16)))
	}
	if !cond() {
		panic("netspec: " + what + " timed out")
	}
}

// ConvergenceSlots returns a warm-up horizon after which an adaptive
// piconet with the given assessment window has classified at least
// twice and completed the LMP map switch: two windows plus the
// negotiated AFH instant with slack. Experiments measure after this
// horizon so every arm (off/oracle/adaptive) sees an identical
// protocol.
func ConvergenceSlots(assessWindowSlots int) uint64 {
	return uint64(2*assessWindowSlots) + 600
}
