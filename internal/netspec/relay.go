package netspec

import (
	"encoding/binary"

	"repro/internal/baseband"
	"repro/internal/btclock"
	"repro/internal/l2cap"
	"repro/internal/lmp"
	"repro/internal/sim"
	"repro/internal/stats"
)

// relayPSM is the protocol/service multiplexer value the scatternet
// relay protocol rides on.
const relayPSM = 0x0F

// Membership is one of a bridge's two piconet attachments.
type Membership struct {
	// Piconet is the index of the attached piconet.
	Piconet int
	// Link is the bridge-side ACL link to that piconet's master.
	Link *baseband.Link
	// MasterLink is the master-side end of the same link.
	MasterLink *baseband.Link
	// BB is the baseband membership (clock offset, hop sequence).
	BB *baseband.Membership
	// Out is the relay channel from the bridge to the piconet's master.
	Out *l2cap.Channel
	// SniffOffset and AttemptEvenSlots are the negotiated presence
	// window in the piconet's even-slot index domain.
	SniffOffset      int
	AttemptEvenSlots int

	clockOffset uint32
}

// queuedFrame is one store-and-forward entry.
type queuedFrame struct {
	sdu []byte
	at  uint64 // enqueue time in slots
}

// BridgeState is one built scatternet bridge: a device that is slave
// in two piconets and relays L2CAP frames between them.
type BridgeState struct {
	// Index is the bridge's position in World.Bridges.
	Index int
	// Dev is the bridge device.
	Dev *baseband.Device
	// LMP runs the bridge side of the presence handshakes.
	LMP *lmp.Manager
	// Members are the two attachments, stanza field A first.
	Members [2]*Membership

	// QueueDepth tracks the store-and-forward queue depth over time
	// (both directions pooled), in slots.
	QueueDepth stats.Occupancy
	// FwdLatency samples per-frame forwarding latency — enqueue at the
	// bridge to drain into the outgoing window — in slots.
	FwdLatency stats.Sample
	// Forwarded counts frames relayed across the bridge.
	Forwarded int
	// Dropped counts frames the bounded queue refused.
	Dropped int

	spec   Bridge
	t0     uint64 // presence grid anchor, kernel ticks
	active int
	q      [2][]queuedFrame
	node   *node
	world  *World
}

// depth is the total store-and-forward backlog across both directions.
func (b *BridgeState) depth() int { return len(b.q[0]) + len(b.q[1]) }

// node is one relay participant (master, slave or bridge): its L2CAP
// entity, the relay channels to its neighbours and the next-hop table.
type node struct {
	name   string
	dev    *baseband.Device
	mux    *l2cap.Mux
	chans  map[string]*l2cap.Channel // neighbour name -> relay channel
	peers  []string                  // neighbour names in attach order (deterministic)
	next   map[string]string         // destination -> neighbour name
	bridge *BridgeState              // non-nil on bridges
}

// FlowSpec names one end-to-end traffic flow by device names.
type FlowSpec struct {
	From, To string
}

// Flow is a running flow with its delivery accounting.
type Flow struct {
	FlowSpec
	// SentBytes and DeliveredBytes count SDU payload over the current
	// measurement window.
	SentBytes, DeliveredBytes int
	// Latency samples end-to-end delivery latency in slots.
	Latency stats.Sample
}

// buildRelay stands the scatternet machinery up: every connected
// piconet's master and slaves become relay nodes, intra-piconet relay
// channels open, each Bridge stanza is paged into its two piconets,
// routes are computed, and the presence handshake plus scheduler and
// drain start on every bridge.
func (w *World) buildRelay() {
	w.nodes = make(map[string]*node)
	w.names = make(map[baseband.BDAddr]string)

	// Every master and slave becomes a relay node. Attaching the L2CAP
	// entity takes over OnData, which is the point: all host traffic in
	// a scatternet is L2CAP.
	for _, p := range w.Piconets {
		if p.spec.Detached {
			continue
		}
		w.addNode(p.Master)
		for _, sl := range p.Slaves {
			w.addNode(sl)
		}
	}
	// Relay channels master->slave inside every piconet.
	opened := 0
	want := 0
	for _, p := range w.Piconets {
		if p.spec.Detached {
			continue
		}
		mn := w.nodes[p.Master.Name()]
		for _, l := range p.Links {
			want++
			link := l
			mn.mux.Connect(link, relayPSM, func(ch *l2cap.Channel, err error) {
				if err != nil {
					panic("netspec: intra-piconet relay channel refused: " + err.Error())
				}
				w.registerChannel(mn, ch)
				opened++
			})
		}
	}
	w.runUntil(2048, "intra-piconet channel setup", func() bool { return opened == want })

	for i := range w.spec.Bridges {
		w.Bridges = append(w.Bridges, w.buildBridge(i))
	}
	w.buildRoutes()

	// Anchor each bridge's presence grid far enough out that every
	// handshake finishes first; the sniff windows are periodic, so the
	// anchor only fixes phases, not a start time.
	now := uint64(w.Sim.K.Now())
	for _, b := range w.Bridges {
		period := uint64(b.spec.PresencePeriodSlots) * sim.SlotTicks
		b.t0 = (now/period + 2) * period
	}
	for _, b := range w.Bridges {
		w.negotiatePresence(b)
	}
	for _, b := range w.Bridges {
		w.startScheduler(b)
		w.startDrain(b)
	}
}

// addNode wires a device into the relay: L2CAP entity plus the accept
// side of the relay PSM.
func (w *World) addNode(d *baseband.Device) *node {
	nd := &node{
		name:  d.Name(),
		dev:   d,
		mux:   l2cap.Attach(d),
		chans: make(map[string]*l2cap.Channel),
		next:  make(map[string]string),
	}
	nd.mux.RegisterPSM(relayPSM, func(ch *l2cap.Channel) {
		w.registerChannel(nd, ch)
	})
	w.nodes[nd.name] = nd
	w.names[d.Addr()] = nd.name
	return nd
}

// registerChannel books an open relay channel under the neighbour's
// device name and points its SDU handler at the relay.
func (w *World) registerChannel(nd *node, ch *l2cap.Channel) {
	peer, ok := w.names[ch.Link().Peer]
	if !ok {
		panic("netspec: relay channel to unknown device")
	}
	if _, dup := nd.chans[peer]; !dup {
		nd.peers = append(nd.peers, peer)
	}
	nd.chans[peer] = ch
	ch.OnSDU = func(sdu []byte) { w.onSDU(nd, sdu) }
}

// buildBridge creates bridge i and pages it into its two piconets.
func (w *World) buildBridge(i int) *BridgeState {
	sp := w.spec.Bridges[i]
	if w.layout != nil {
		// The relay stands midway between its two masters (reach was
		// checked against the layout before any device was built).
		w.Sim.Ch.Place(BridgeName(i), bridgePosition(w.layout[sp.A].master, w.layout[sp.B].master))
	}
	d := w.Sim.AddDevice(BridgeName(i), baseband.Config{
		Addr: baseband.BDAddr{
			LAP: 0x7D0000 + uint32(i)*0x11111,
			UAP: uint8(0xB0 + i),
			NAP: uint16(0x0300 + i),
		},
		TpollSlots: w.spec.Piconets[sp.A].TpollSlots,
		// Scan continuously: the second page-in must not wait for an R1
		// scan interval, and foreign piconets can collide with the
		// handshake.
		PageScanWindowSlots:   2048,
		PageScanIntervalSlots: 2048,
	})
	b := &BridgeState{Index: i, Dev: d, LMP: lmp.Attach(d), spec: sp, world: w}
	b.node = w.addNode(d)
	b.node.bridge = b
	// Attribute the bridge's collisions to piconet A (it spends half
	// its presence in each; the attribution needs one owner).
	w.adoptDevice(d, sp.A)

	b.Members[0] = w.joinPiconet(b, sp.A)
	bb0 := d.SuspendMembership()
	b.Members[0].BB = bb0
	b.Members[1] = w.joinPiconet(b, sp.B)
	b.Members[1].BB = d.CaptureMembership()
	b.active = 1
	return b
}

// joinPiconet pages the bridge into piconet pi, opens the relay channel
// to its master, and records the piconet's clock offset. The bridge is
// left active in that piconet.
func (w *World) joinPiconet(b *BridgeState, pi int) *Membership {
	p := w.Piconets[pi]
	links := w.Sim.BuildPiconet(p.Master, b.Dev)
	m := &Membership{
		Piconet:     pi,
		Link:        b.Dev.MasterLink(),
		MasterLink:  links[0],
		clockOffset: b.Dev.Clock.Offset(),
	}
	m.Link.PacketType = b.spec.PacketType
	m.MasterLink.PacketType = b.spec.PacketType
	done := false
	b.node.mux.Connect(m.Link, relayPSM, func(ch *l2cap.Channel, err error) {
		if err != nil {
			panic("netspec: bridge relay channel refused: " + err.Error())
		}
		m.Out = ch
		w.registerChannel(b.node, ch)
		done = true
	})
	w.runUntil(4096, "bridge relay channel setup", func() bool { return done })
	return m
}

// negotiatePresence runs the LMP timing handshake on both of b's links:
// slot offset first, then the sniff window that pins the bridge's
// presence in that piconet. Membership 1 is negotiated first (the
// bridge is already active there after its join), then the bridge
// switches to membership 0 for the second handshake.
func (w *World) negotiatePresence(b *BridgeState) {
	for _, mi := range []int{1, 0} {
		m := b.Members[mi]
		if b.active != mi {
			b.activate(mi)
		}
		m.AttemptEvenSlots = b.spec.windowEvenSlots()
		m.SniffOffset = w.sniffOffsetFor(b, mi)
		accepted := false
		b.LMP.RequestPresence(m.Link, b.spec.PresencePeriodSlots, m.AttemptEvenSlots,
			m.SniffOffset, w.slotOffsetUS(b, mi), func(ok bool) { accepted = ok })
		w.runUntil(4096, "presence negotiation", func() bool { return accepted })
	}
}

// sniffOffsetFor maps membership mi's absolute window start — the grid
// anchor plus half a period per membership index — into that piconet's
// even-slot index domain. The +1 even slot keeps the window strictly
// inside the absolute half-period after activation boundary rounding.
func (w *World) sniffOffsetFor(b *BridgeState, mi int) int {
	half := uint64(b.spec.PresencePeriodSlots) * sim.SlotTicks / 2
	start := sim.Time(b.t0 + uint64(mi)*half)
	clk := (b.Dev.Clock.CLKN(start) + b.Members[mi].clockOffset) & btclock.Mask
	period := uint32(b.spec.PresencePeriodSlots / 2) // even slots per period
	return int(((clk >> 2) + 1) % period)
}

// slotOffsetUS is the announced phase difference between the bridge's
// other piconet's TDD frame and membership mi's, in microseconds.
func (w *World) slotOffsetUS(b *BridgeState, mi int) uint16 {
	other := b.Members[1-mi].clockOffset
	this := b.Members[mi].clockOffset
	diff := (other - this) & 3 // half-slots within the 2-slot TDD frame
	return uint16(uint64(diff) * 3125 / 10)
}

// activate switches the bridge radio to membership mi.
func (b *BridgeState) activate(mi int) {
	b.active = mi
	b.Dev.ActivateMembership(b.Members[mi].BB)
}

// startScheduler arms the presence scheduler: at every half-period
// boundary of the grid the bridge retunes to the membership whose
// window opens there. Scheduled on the kernel directly — membership
// switches must survive the state-generation bumps they themselves
// cause.
func (w *World) startScheduler(b *BridgeState) {
	w.schedPump(b).start()
}

// startDrain arms the bridge's store-and-forward drain: every two slots
// it moves frames from the active membership's queue into its link, as
// long as the baseband queue stays shallow — so the backlog (and its
// statistics) live at L2CAP, and frames only drain during the piconet's
// presence window because only then does the master empty the link.
func (w *World) startDrain(b *BridgeState) {
	w.drainPump(b).start()
}

// drain moves queued frames for the active membership into its link.
func (b *BridgeState) drain() {
	m := b.Members[b.active]
	if m.Out == nil {
		return
	}
	now := b.world.Sim.Now()
	moved := false
	for len(b.q[b.active]) > 0 && m.Link.QueueLen() < b.spec.PumpDepth {
		f := b.q[b.active][0]
		b.q[b.active] = b.q[b.active][1:]
		b.FwdLatency.Add(float64(now - f.at))
		b.Forwarded++
		m.Out.Send(f.sdu)
		moved = true
	}
	if moved {
		b.QueueDepth.Observe(b.depth(), now)
	}
}

// enqueue books one frame for the membership that reaches neighbour.
func (b *BridgeState) enqueue(neighbour string, sdu []byte) {
	mi := -1
	for i, m := range b.Members {
		if b.world.names[m.Link.Peer] == neighbour {
			mi = i
			break
		}
	}
	if mi < 0 {
		b.world.RouteMisses++
		return
	}
	if b.depth() >= b.spec.MaxQueueFrames {
		b.Dropped++
		return
	}
	now := b.world.Sim.Now()
	b.q[mi] = append(b.q[mi], queuedFrame{sdu: sdu, at: now})
	b.QueueDepth.Observe(b.depth(), now)
}

// buildRoutes computes every node's next-hop table by breadth-first
// search over the relay topology. Deterministic: adjacency is walked in
// attach order.
func (w *World) buildRoutes() {
	order := w.nodeOrder()
	for _, src := range order {
		nd := w.nodes[src]
		// BFS from src over neighbour lists.
		prev := map[string]string{src: ""}
		queue := []string{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range w.nodes[cur].peers {
				if _, seen := prev[nb]; seen {
					continue
				}
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
		for _, dst := range order {
			if dst == src {
				continue
			}
			// Walk back from dst to the neighbour of src on the path.
			hop, cur := "", dst
			for cur != "" && cur != src {
				hop, cur = cur, prev[cur]
			}
			if cur == src && hop != "" {
				nd.next[dst] = hop
			}
		}
	}
}

// nodeOrder lists node names deterministically: masters and slaves in
// build order, then bridges.
func (w *World) nodeOrder() []string {
	var out []string
	for _, p := range w.Piconets {
		if p.spec.Detached {
			continue
		}
		out = append(out, p.Master.Name())
		for _, sl := range p.Slaves {
			out = append(out, sl.Name())
		}
	}
	for _, b := range w.Bridges {
		out = append(out, b.Dev.Name())
	}
	return out
}

// route forwards sdu toward dst from nd: bridges queue it for the
// membership window, everyone else sends it straight down the link.
func (w *World) route(nd *node, dst string, sdu []byte) {
	hop, ok := nd.next[dst]
	if !ok {
		w.RouteMisses++
		return
	}
	if nd.bridge != nil {
		nd.bridge.enqueue(hop, sdu)
		return
	}
	ch, ok := nd.chans[hop]
	if !ok {
		w.RouteMisses++
		return
	}
	ch.Send(sdu)
}

// onSDU handles a relay frame arriving at nd: deliver or forward.
func (w *World) onSDU(nd *node, sdu []byte) {
	fr, ok := decodeFrame(sdu)
	if !ok {
		return
	}
	if fr.dst == nd.name {
		w.DeliveredBytes += len(fr.payload)
		lat := float64(w.Sim.Now() - fr.origin)
		w.E2ELatency.Add(lat)
		if int(fr.flow) < len(w.Flows) {
			f := w.Flows[fr.flow]
			f.DeliveredBytes += len(fr.payload)
			f.Latency.Add(lat)
		}
		return
	}
	w.route(nd, fr.dst, sdu)
}

// frame is the decoded relay header.
type frame struct {
	flow    uint8
	dst     string
	origin  uint64 // origin send time in slots
	payload []byte
}

// encodeFrame serialises the relay header in front of the payload:
// flow index, destination name, origin timestamp.
func encodeFrame(flow uint8, dst string, origin uint64, payload []byte) []byte {
	if len(dst) > 255 {
		panic("netspec: destination name too long")
	}
	out := make([]byte, 0, 2+len(dst)+8+len(payload))
	out = append(out, flow, uint8(len(dst)))
	out = append(out, dst...)
	var ts [8]byte
	binary.LittleEndian.PutUint64(ts[:], origin)
	out = append(out, ts[:]...)
	return append(out, payload...)
}

// decodeFrame parses a relay frame.
func decodeFrame(b []byte) (frame, bool) {
	if len(b) < 2 {
		return frame{}, false
	}
	dl := int(b[1])
	if len(b) < 2+dl+8 {
		return frame{}, false
	}
	return frame{
		flow:    b[0],
		dst:     string(b[2 : 2+dl]),
		origin:  binary.LittleEndian.Uint64(b[2+dl : 2+dl+8]),
		payload: b[2+dl+8:],
	}, true
}
