// Package channel models the shared radio medium exactly as the paper's
// Fig. 2 does: a digital module connecting every device, emulating
// (a) channel noise as random inversions of on-air bits, (b) delivery
// at the instant the last bit leaves the air (the model's
// modulator/demodulator delay is zero), and (c) collisions — when two
// devices transmit overlapping in time on the same RF channel the
// resolver forces the received value to the undefined symbol 'X' and
// receivers drop the packet. A device that is not transmitting leaves
// the wire in high impedance 'Z'; frequency selectivity comes from the
// FHSS model: a receiver only hears transmissions on the channel it is
// tuned to.
//
// Bits exist only where they can differ. A transmitter may hand the
// channel a Frame instead of bits: the logical packet, which knows its
// air length and assembles its bits on first need. On a noiseless
// channel a delivery of a frame passes the receiver no bit vector at
// all (a clean delivery): the receiver reads the frame, or asks for the
// bits through Transmission.Materialize. Noise needs bits to flip, so
// at BER > 0 the channel materialises the frame before its first noisy
// copy. Either way a transmission is assembled at most once, however
// many receivers read it.
//
// The paper's medium is a single shared ether — every tuned radio
// hears every transmission. EnableSpatial (see spatial.go) optionally
// adds geometry on top: radios get floor positions, a two-threshold
// path-loss model decides per-receiver reachability (delivery disc,
// interference-only annulus, silence beyond). Both media gather
// receivers in the same scan; the spatial one only adds a distance
// test.
package channel

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/hop"
	"repro/internal/sim"
)

// Transmission describes one packet on the air. Transmissions are
// pooled by the channel: once the delivery event has run, the node (and
// its once-allocated delivery closures) is recycled for a later packet,
// so steady-state traffic does not allocate. Listeners must not retain
// the pointer past their RxEnd callback.
type Transmission struct {
	From  string   // transmitter name, for logs and stats
	Freq  int      // RF channel 0..78
	Start sim.Time // first bit leaves the antenna
	End   sim.Time // last bit leaves the air; delivery happens here
	// Bits are the bits on the air: set from the start when the
	// transmitter sent bits, nil on a frame until Materialize.
	Bits *bits.Vec
	// Frame is the transmitter's lazily coded packet, nil when it sent
	// bits (see Radio.TransmitFrame).
	Frame    Frame
	Meta     any      // opaque annotation (packet type) for stats/logs
	pos      Position // transmitter position (spatial medium only)
	collided bool     // set when another transmission overlapped on Freq
	idx      int      // position in the channel's active list

	// Pool plumbing: the owning channel, the snapshot of receivers that
	// were tuned at Start (reused between incarnations), the
	// transmitter's end-of-air callback, and the two delivery events,
	// allocated once when the node is first created.
	ch       *Channel
	eligible []*Radio
	done     func()    // transmitter's end-of-air bookkeeping; may be nil
	startFn  sim.Event // RxStart fan-out, later in the Start tick
	endFn    sim.Event // delivery/collision fan-out at End
}

// Duration returns the on-air time.
func (t *Transmission) Duration() sim.Duration { return sim.Duration(t.End - t.Start) }

// Materialize returns the transmission's bits, assembling the frame on
// the first call (counted in Stats.Materialized). The vector is the
// transmitter's: read-only, and gone after the last RxEnd.
func (t *Transmission) Materialize() *bits.Vec {
	if t.Bits == nil {
		t.Bits = t.Frame.Code()
		t.ch.stats.Materialized++
	}
	return t.Bits
}

// Frame is a packet whose bits the channel asks for only when someone
// reads them: on a noisy channel, or when a receiver calls
// Transmission.Materialize.
type Frame interface {
	// AirBits is the on-air length in bits; it sets the air time.
	AirBits() int
	// Code assembles the AirBits bits. The channel calls it at most
	// once per transmission; the vector must stay unchanged until the
	// transmission's done callback.
	Code() *bits.Vec
}

// Listener is a tuned receiver. RxStart fires later in the tick a
// packet begins on the tuned frequency, letting the baseband keep its
// RF window open to packet end; RxEnd delivers the (noise-corrupted)
// bits or reports a collision at the packet's End. A clean delivery of
// a frame (BER 0, tx.Frame set) passes rx nil: no bit can differ from
// the transmitter's, so the listener reads tx.Frame, or calls
// tx.Materialize when it needs the bits. The delivered bits may be
// shared with other receivers (and, on a noiseless channel, with the
// transmitter): listeners must treat rx as read-only. Like the
// *Transmission, rx must not be retained past RxEnd: a noisy copy goes
// back to the channel's free list when RxEnd returns, and the
// transmitter reuses its own vector once the packet has left the air.
type Listener interface {
	Name() string
	RxStart(tx *Transmission)
	RxEnd(tx *Transmission, rx *bits.Vec, collided bool)
}

// FreqCount tallies the per-RF-channel breakdown of the aggregate
// counters; the coexistence layer and its adaptive-AFH classifier read
// these to see where on the band the damage happens.
type FreqCount struct {
	Transmissions int `json:"transmissions"`
	Deliveries    int `json:"deliveries"`
	Collisions    int `json:"collisions"`
	Jammed        int `json:"jammed"`
}

// Stats counts channel-level events for the experiment reports.
type Stats struct {
	Transmissions int
	Deliveries    int
	Collisions    int // transmissions corrupted by overlap
	FlippedBits   int // total noise-inverted bits delivered
	Jammed        int // transmissions destroyed by static interferers

	// CleanDeliveries counts deliveries of a frame that passed no bits
	// (BER 0); Materialized counts frames whose bits were assembled.
	CleanDeliveries int
	Materialized    int

	// PerFreq breaks the counters down by RF channel 0..78.
	PerFreq [hop.NumChannels]FreqCount
}

// Config sets the channel's physical parameters.
type Config struct {
	// BER is the bit error rate: probability each delivered bit is
	// inverted. The paper sweeps 1/100 .. 1/30.
	BER float64
}

// Jammer is a static interferer (an 802.11 network parked on part of
// the ISM band): transmissions on its channels are corrupted with the
// given probability. This is the coexistence scenario of the paper's
// references [3-5] and the motivation for the v1.2 AFH extension.
type Jammer struct {
	LoChannel int
	HiChannel int
	Duty      float64 // probability a hit transmission is destroyed
}

// Channel is the shared medium.
type Channel struct {
	k   *sim.Kernel
	rng *sim.Rand
	cfg Config

	radios      map[Listener]*Radio
	receivers   []*Radio                 // tuned-at-least-once radios in registration order
	byFreq      [hop.NumChannels][]int32 // receivers (by seq) per frequency they last tuned to, in no particular order
	active      []*Transmission          // transmissions whose deliverEnd has not run yet
	txFree      []*Transmission          // recycled transmission nodes
	rxFree      []*bits.Vec              // recycled noisy copies (see corrupt)
	jammers     []Jammer
	stats       Stats
	onCollision func(existing, incoming *Transmission)
	spatial     *spatialState // nil = the global shared ether (see spatial.go)
}

// Radio is one listener's handle on the channel: its receiver state
// and the entry point for its tunes and transmissions. A device takes
// it once (Channel.Radio) and tunes through it, so the per-slot
// receiver on/off never looks the listener up again. The struct
// persists across Tune/Off cycles. A registered radio sits in the list
// of the frequency it last tuned to (Channel.byFreq), on or off, so a
// transmission scans only the radios tuned to its frequency. Tune moves
// the radio between lists; Off leaves it where it is.
type Radio struct {
	c     *Channel
	l     Listener
	name  string // l.Name(), read once
	seq   int    // registration order, -1 until the first Tune; ties the eligible sort (see sortListeners)
	on    bool
	freq  int
	idx   int // position in c.byFreq[freq] once registered
	since sim.Time
	busy  *Transmission // packet currently being received
	pos   Position      // listener position (spatial medium only)
}

// New creates a channel on the kernel with its own noise RNG stream.
func New(k *sim.Kernel, rng *sim.Rand, cfg Config) *Channel {
	if cfg.BER < 0 || cfg.BER >= 1 {
		panic(fmt.Sprintf("channel: BER %v out of [0,1)", cfg.BER))
	}
	return &Channel{k: k, rng: rng, cfg: cfg, radios: make(map[Listener]*Radio)}
}

// Stats returns a copy of the counters.
func (c *Channel) Stats() Stats { return c.stats }

// AddJammer installs a static interferer over channels [lo, hi].
func (c *Channel) AddJammer(lo, hi int, duty float64) {
	if lo < 0 || hi >= hop.NumChannels || lo > hi {
		panic(fmt.Sprintf("channel: jammer range %d..%d invalid", lo, hi))
	}
	if duty < 0 || duty > 1 {
		panic(fmt.Sprintf("channel: jammer duty %v invalid", duty))
	}
	c.jammers = append(c.jammers, Jammer{LoChannel: lo, HiChannel: hi, Duty: duty})
}

// ClearJammers removes all static interferers.
func (c *Channel) ClearJammers() { c.jammers = nil }

// SetCollisionHook installs fn, invoked once per overlapping
// transmission pair at the instant the overlap is detected (the already
// airborne transmission first, the newcomer second). The coexistence
// layer uses it to attribute collisions to piconets; nil disables.
func (c *Channel) SetCollisionHook(fn func(existing, incoming *Transmission)) {
	c.onCollision = fn
}

// jammed decides whether a transmission on freq is destroyed by an
// interferer.
func (c *Channel) jammed(freq int) bool {
	for _, j := range c.jammers {
		if freq >= j.LoChannel && freq <= j.HiChannel && c.rng.Bool(j.Duty) {
			return true
		}
	}
	return false
}

// Radio returns l's handle on the channel, creating it on first use.
// The receiver registers (and, on a spatial medium, resolves its
// position) at its first Tune, not here, so receiver order follows the
// order radios first listen.
func (c *Channel) Radio(l Listener) *Radio {
	r := c.radios[l]
	if r == nil {
		r = &Radio{c: c, l: l, name: l.Name(), seq: -1}
		c.radios[l] = r
	}
	return r
}

// Tune points l's receiver at freq; see Radio.Tune.
func (c *Channel) Tune(l Listener, freq int) { c.Radio(l).Tune(freq) }

// Tune points the receiver at freq from the current instant. Retuning
// while a packet is mid-air abandons that packet and opens a fresh
// listen window — whatever frequency the retune targets, including the
// one already tuned. Only an idle retune to the same frequency is a
// no-op that keeps the original since-time; bouncing away and back
// mid-packet must not silently rejoin the abandoned reception.
func (r *Radio) Tune(freq int) {
	if freq < 0 || freq >= hop.NumChannels {
		panic(fmt.Sprintf("channel: freq %d out of range", freq))
	}
	c := r.c
	switch {
	case r.seq < 0:
		r.seq = len(c.receivers)
		c.receivers = append(c.receivers, r)
		if c.spatial != nil {
			c.spatial.register(r)
		}
		r.list(freq)
	case r.freq != freq: // swap-remove from the old frequency's list
		ls := &c.byFreq[r.freq]
		last := (*ls)[len(*ls)-1]
		(*ls)[r.idx], c.receivers[last].idx = last, r.idx
		*ls = (*ls)[:len(*ls)-1]
		r.list(freq)
	case r.on && r.busy == nil:
		return // already listening idle there; keep the original since-time
	}
	r.on = true
	r.freq = freq
	r.since = c.k.Now()
	r.busy = nil
}

// list appends the radio to freq's list. The lists hold seqs, not
// pointers, so a retune stores no pointer.
func (r *Radio) list(freq int) {
	ls := &r.c.byFreq[freq]
	r.idx = len(*ls)
	*ls = append(*ls, int32(r.seq))
}

// Off stops the receiver, abandoning any packet it was locked onto.
func (r *Radio) Off() {
	r.on = false
	r.busy = nil
}

// Freq reports the frequency the receiver listens on, or -1.
func (r *Radio) Freq() int {
	if r.on {
		return r.freq
	}
	return -1
}

// Transmit puts v on the air at freq from the radio's listener; see
// Channel.Transmit. done, if non-nil, runs once at End, after the last
// RxEnd and before any event those RxEnds schedule: the transmitter's
// end-of-air bookkeeping without an event of its own.
func (r *Radio) Transmit(freq int, v *bits.Vec, meta any, done func()) *Transmission {
	return r.c.transmit(r, r.name, r.txPos(), freq, v, nil, v.Len(), meta, done)
}

// TransmitFrame puts f on the air like Transmit, for f.AirBits() bits
// of air time, without assembling it: its bits are coded at most once,
// when a noisy delivery or a receiver first needs them (see Frame).
func (r *Radio) TransmitFrame(freq int, f Frame, meta any, done func()) *Transmission {
	return r.c.transmit(r, r.name, r.txPos(), freq, nil, f, f.AirBits(), meta, done)
}

// txPos is where the radio transmits from: its own position, resolved
// here on a spatial medium if it never tuned.
func (r *Radio) txPos() Position {
	if r.seq < 0 && r.c.spatial != nil {
		return r.c.spatial.txPosition(r.name)
	}
	return r.pos
}

// Transmit puts v on the air at freq from device `from` (which may also
// be a Listener; it never hears itself). Delivery happens at End, the
// instant the last bit leaves the air, to every listener that was
// already tuned to freq when the first bit arrived and stayed tuned —
// on a spatial medium, only those inside the transmitter's delivery
// disc (see spatial.go).
//
// A packet costs one kernel event (delivery at End) when nobody can
// hear it, and two when someone can (RxStart fan-out later in the
// Start tick, then delivery).
//
// The returned pointer is only valid until the delivery event at End:
// the node is recycled afterwards (fields zeroed or reused by a later
// packet). Read what you need synchronously; do not retain it.
func (c *Channel) Transmit(from string, freq int, v *bits.Vec, meta any) *Transmission {
	var pos Position
	if c.spatial != nil {
		pos = c.spatial.txPosition(from)
	}
	return c.transmit(nil, from, pos, freq, v, nil, v.Len(), meta, nil)
}

// transmit puts n air bits on the air from src, at position pos on a
// spatial medium: the bits v, or the frame f. A radio never hears
// itself; a transmitter named only by a string (src nil) is matched by
// name instead.
func (c *Channel) transmit(src *Radio, from string, pos Position, freq int, v *bits.Vec, f Frame, n int, meta any, done func()) *Transmission {
	if n == 0 {
		panic("channel: empty transmission")
	}
	now := c.k.Now()
	sp := c.spatial
	tx := c.allocTx()
	tx.From = from
	tx.Freq = freq
	tx.Start = now
	tx.End = now + sim.Time(n*sim.BitTicks)
	tx.Bits = v
	tx.Frame = f
	tx.Meta = meta
	tx.done = done
	tx.pos = pos
	c.stats.Transmissions++
	c.stats.PerFreq[freq].Transmissions++
	if c.jammed(freq) {
		tx.collided = true
		c.stats.Jammed++
		c.stats.PerFreq[freq].Jammed++
	}

	// Collision resolution: any active transmission overlapping on the
	// same frequency corrupts both (the resolver drives 'X'). On a
	// spatial medium only transmitters close enough that one's
	// interference annulus can reach into the other's delivery disc
	// collide — farther apart, the frequency is spatially reused.
	for _, other := range c.active {
		if other.End > now && other.Freq == freq &&
			(sp == nil || dist2(other.pos, tx.pos) <= sp.collide2) {
			if !other.collided {
				c.stats.Collisions++
				c.stats.PerFreq[freq].Collisions++
			}
			if !tx.collided {
				c.stats.Collisions++
				c.stats.PerFreq[freq].Collisions++
			}
			other.collided = true
			tx.collided = true
			if c.onCollision != nil {
				c.onCollision(other, tx)
			}
		}
	}
	tx.idx = len(c.active)
	c.active = append(c.active, tx)

	// Snapshot eligible receivers now; they must remain tuned through the
	// end to actually receive (checked again at delivery). A receiver
	// already locked onto an earlier packet stays with it — a colliding
	// newcomer corrupts that packet rather than hijacking the correlator,
	// and at an exact end/start boundary the turnaround is a miss. Only
	// the radios last tuned to freq are visited.
	for _, i := range c.byFreq[freq] {
		if r := c.receivers[i]; r.on && r.since <= now && r.busy == nil && r != src && (src != nil || r.name != from) &&
			(sp == nil || dist2(r.pos, tx.pos) <= sp.rangeM2) {
			tx.eligible = append(tx.eligible, r)
			r.busy = tx
		}
	}

	if len(tx.eligible) > 0 {
		// Fan out in (name, registration seq) order, not scan order (the
		// spatial determinism contract).
		sortListeners(tx.eligible)
		c.k.Schedule(0, tx.startFn)
	}
	c.k.Schedule(sim.Duration(tx.End-now), tx.endFn)
	return tx
}

// allocTx takes a transmission node off the free list or creates one,
// wiring its two delivery closures exactly once per node.
func (c *Channel) allocTx() *Transmission {
	if n := len(c.txFree); n > 0 {
		tx := c.txFree[n-1]
		c.txFree = c.txFree[:n-1]
		return tx
	}
	tx := &Transmission{ch: c}
	tx.startFn = tx.deliverStart
	tx.endFn = tx.deliverEnd
	return tx
}

// deliverStart fans RxStart out to the receivers still locked on tx.
func (tx *Transmission) deliverStart() {
	for _, r := range tx.eligible {
		if r.busy == tx {
			r.l.RxStart(tx)
		}
	}
}

// deliverEnd fans the final bits (or the collision verdict) out to the
// receivers that stayed tuned through the whole packet, recycles the
// transmission node, and last runs the transmitter's done callback.
func (tx *Transmission) deliverEnd() {
	c := tx.ch
	for _, r := range tx.eligible {
		if r.busy != tx || !r.on || r.freq != tx.Freq {
			continue // retuned or stopped mid-packet
		}
		r.busy = nil
		if tx.collided {
			r.l.RxEnd(tx, nil, true)
			continue
		}
		c.stats.Deliveries++
		c.stats.PerFreq[tx.Freq].Deliveries++
		if tx.Frame != nil && c.cfg.BER == 0 {
			c.stats.CleanDeliveries++
			r.l.RxEnd(tx, nil, false)
			continue
		}
		rx := c.corrupt(tx.Materialize())
		r.l.RxEnd(tx, rx, false)
		if rx != tx.Bits {
			bits.Poison(rx)
			c.rxFree = append(c.rxFree, rx)
		}
	}
	// The packet has left the air (End <= now), so it can no longer
	// collide with anything; swap it out of the active list and recycle.
	n := len(c.active) - 1
	last := c.active[n]
	c.active[tx.idx], last.idx = last, tx.idx
	c.active[n] = nil
	c.active = c.active[:n]
	done := tx.done
	tx.Bits = nil
	tx.Frame = nil
	tx.Meta = nil
	tx.done = nil
	tx.collided = false
	tx.eligible = tx.eligible[:0]
	c.txFree = append(c.txFree, tx)
	if done != nil {
		done()
	}
}

// corrupt applies the BER to a copy of the transmitted bits, taken from
// the channel's free list: deliverEnd returns it there once RxEnd is
// done with it. Its caller materialises a frame first, so the noise
// draws follow the same stream whether the transmitter sent bits or a
// frame (assembly draws nothing). A noiseless channel hands receivers
// the transmitted vector itself (and a frame no vector at all, see
// Listener): the per-receiver copy exists only to carry independent
// noise, and the whole receive chain (correlation, FEC, dewhitening,
// payload extraction) reads rx without mutating it — receivers must
// treat delivered bits as shared and read-only, per the Listener
// contract.
func (c *Channel) corrupt(v *bits.Vec) *bits.Vec {
	if c.cfg.BER == 0 {
		return v
	}
	var out *bits.Vec
	if n := len(c.rxFree); n > 0 {
		out = c.rxFree[n-1]
		c.rxFree = c.rxFree[:n-1]
		out.Reset()
	} else {
		out = bits.NewVec(v.Len())
	}
	out.AppendVec(v)
	for i := 0; i < out.Len(); i++ {
		if c.rng.Bool(c.cfg.BER) {
			out.FlipBit(i)
			c.stats.FlippedBits++
		}
	}
	return out
}

// sortListeners orders the eligible snapshot by (name, registration
// sequence) for reproducibility. The seq tiebreak pins the order even
// for duplicate names and — the spatial determinism contract — makes
// the result independent of the order receivers were collected in.
func sortListeners(ls []*Radio) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && less(ls[j], ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

func less(a, b *Radio) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	return a.seq < b.seq
}
