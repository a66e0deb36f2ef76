package channel

import "fmt"

// This file holds the spatial medium: positions and the path-loss
// range model. The model is strictly opt-in — a Channel without
// EnableSpatial behaves exactly as the paper's single shared ether
// (every tuned radio hears every transmission), and the spatial path
// with a range wider than the world reproduces that behaviour bit for
// bit (the reference-model equivalence suite pins this).
//
// Geometry is a flat two-dimensional floor in meters. Propagation is a
// two-threshold path-loss disc around each transmitter:
//
//   - dist <= RangeM            delivery: the receiver decodes the packet
//   - RangeM < dist <= InterferenceM   annulus: energy only — the signal
//     cannot be decoded but still feeds the four-valued collision
//     resolver as interference
//   - dist > InterferenceM      silence: the transmission does not exist
//     for that radio
//
// Collision resolution stays at the model's per-transmission
// granularity: two overlapping same-frequency transmissions corrupt
// each other iff their transmitters are within RangeM + InterferenceM
// of each other — the nearest distance at which one transmitter's
// interference annulus can still reach a receiver inside the other's
// delivery disc. Beyond that separation the same RF channel is
// spatially reused without damage, which is exactly the effect that
// caps the old global medium at a handful of piconets.
//
// Receivers: Transmit scans the radios last tuned to the packet's
// frequency (see Channel.byFreq) for both media; the spatial medium
// only adds the delivery-disc distance test as its last term. A
// transmitting radio's position is its own, resolved at its first Tune
// and moved by Place; only the name-keyed Channel.Transmit wrapper and
// a radio that never tuned look the position up by name.
//
// Determinism contract: the eligible snapshot is sorted by (name,
// registration sequence) — see sortListeners — so the delivery fan-out
// order never depends on registration or placement order. Jammers
// remain geography-free: a static interferer occupies its band
// everywhere on the floor.

// Position is a point on the simulated floor, in meters.
type Position struct {
	X, Y float64
}

// dist2 returns the squared distance between two positions.
func dist2(a, b Position) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// SpatialConfig parameterises the range model.
type SpatialConfig struct {
	// RangeM is the delivery radius in meters: receivers within it
	// decode the transmission. Required, > 0.
	RangeM float64
	// InterferenceM is the outer radius of the interference annulus:
	// between RangeM and InterferenceM a transmission cannot be decoded
	// but still collides. Defaults to RangeM (no annulus); must be >=
	// RangeM.
	InterferenceM float64
}

// spatialState carries the spatial medium of one Channel.
type spatialState struct {
	rangeM2  float64 // delivery disc, squared
	collide2 float64 // transmitter-pair collision distance, squared

	pos    map[string]Position // declared placements, by radio name
	byName map[string]*Radio   // registered listeners, by name
}

// EnableSpatial switches the channel from the global shared ether to
// the spatial medium. It must be called before any radio tunes or
// transmits: existing listeners have no positions. Every radio that
// subsequently tunes or transmits must have been placed with Place,
// and names must be unique (positions are keyed by name).
func (c *Channel) EnableSpatial(cfg SpatialConfig) {
	if c.spatial != nil {
		panic("channel: spatial medium already enabled")
	}
	if len(c.receivers) > 0 || c.stats.Transmissions > 0 {
		panic("channel: EnableSpatial must run before any Tune or Transmit")
	}
	if !(cfg.RangeM > 0) {
		panic(fmt.Sprintf("channel: spatial range %v must be > 0", cfg.RangeM))
	}
	if cfg.InterferenceM == 0 {
		cfg.InterferenceM = cfg.RangeM
	}
	if !(cfg.InterferenceM >= cfg.RangeM) {
		panic(fmt.Sprintf("channel: interference radius %v < range %v", cfg.InterferenceM, cfg.RangeM))
	}
	sum := cfg.RangeM + cfg.InterferenceM
	c.spatial = &spatialState{
		rangeM2:  cfg.RangeM * cfg.RangeM,
		collide2: sum * sum,
		pos:      make(map[string]Position),
		byName:   make(map[string]*Radio),
	}
}

// Spatial reports whether the spatial medium is enabled.
func (c *Channel) Spatial() bool { return c.spatial != nil }

// Place declares (or updates) the position of the named radio. Every
// transmitter and listener of a spatial channel must be placed before
// its first Transmit or Tune. Re-placing a registered listener moves it
// immediately — a packet already mid-air keeps the receiver snapshot
// taken at its start, matching the global medium's delivery contract.
func (c *Channel) Place(name string, p Position) {
	sp := c.spatial
	if sp == nil {
		panic("channel: Place requires EnableSpatial")
	}
	sp.pos[name] = p
	if st := sp.byName[name]; st != nil {
		st.pos = p
	}
}

// PositionOf returns the declared position of a radio (false if it was
// never placed or the spatial medium is off).
func (c *Channel) PositionOf(name string) (Position, bool) {
	if c.spatial == nil {
		return Position{}, false
	}
	p, ok := c.spatial.pos[name]
	return p, ok
}

// register indexes a newly registered radio: position lookup and name
// uniqueness.
func (sp *spatialState) register(st *Radio) {
	name := st.name
	p, ok := sp.pos[name]
	if !ok {
		panic(fmt.Sprintf("channel: listener %q tuned on a spatial medium without a position (call Place first)", name))
	}
	if sp.byName[name] != nil {
		panic(fmt.Sprintf("channel: duplicate listener name %q on a spatial medium", name))
	}
	sp.byName[name] = st
	st.pos = p
}

// txPosition resolves the position of a transmitter that has no
// registered radio.
func (sp *spatialState) txPosition(from string) Position {
	p, ok := sp.pos[from]
	if !ok {
		panic(fmt.Sprintf("channel: transmitter %q has no position (call Place first)", from))
	}
	return p
}
