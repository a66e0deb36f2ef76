package channel

import (
	"fmt"
	"math"
)

// This file holds the spatial medium: positions, the path-loss range
// model and the cell-bucketed receiver index. The model is strictly
// opt-in — a Channel without EnableSpatial behaves exactly as the
// paper's single shared ether (every tuned radio hears every
// transmission), and the spatial path with a range wider than the
// world reproduces that behaviour bit for bit (the reference-model
// equivalence suite pins this).
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
// Cells: tuned receivers are bucketed into square cells of side
// CellM (default RangeM + InterferenceM, so a 3x3 neighbourhood always
// covers the delivery disc). Transmit scans only the cells the
// delivery disc can touch, so per-packet receiver work is bounded by
// cell occupancy instead of the world's radio count.
//
// Determinism contract: the delivery fan-out order never depends on
// cell geometry. Candidate receivers are collected cell by cell and
// then sorted by (name, registration sequence) — see sortListeners —
// so any cell size, and the cell-free global scan, produce the same
// eligible order. Jammers remain geography-free: a static interferer
// occupies its band everywhere on the floor.

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
	// CellM is the index cell side. Defaults to RangeM + InterferenceM
	// so one ring of neighbouring cells always covers the delivery
	// disc; smaller cells trade wider neighbourhood scans for tighter
	// occupancy. Must be > 0 when set.
	CellM float64
}

// cellKey addresses one index cell.
type cellKey struct {
	x, y int32
}

// spatialState carries the spatial medium of one Channel.
type spatialState struct {
	cfg      SpatialConfig
	rangeM2  float64 // delivery disc, squared
	collide2 float64 // transmitter-pair collision distance, squared
	reach    int32   // neighbourhood radius in cells for the delivery scan

	pos    map[string]Position   // declared placements, by radio name
	byName map[string]*tuneState // registered listeners, by name
	cells  map[cellKey][]*tuneState
}

// EnableSpatial switches the channel from the global shared ether to
// the spatial medium. It must be called before any radio tunes or
// transmits: the cell index is built from scratch and existing
// listeners have no positions. Every radio that subsequently tunes or
// transmits must have been placed with Place, and names must be unique
// (positions are keyed by name).
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
	if cfg.CellM == 0 {
		cfg.CellM = cfg.RangeM + cfg.InterferenceM
	}
	if !(cfg.CellM > 0) {
		panic(fmt.Sprintf("channel: cell side %v must be > 0", cfg.CellM))
	}
	sum := cfg.RangeM + cfg.InterferenceM
	c.spatial = &spatialState{
		cfg:      cfg,
		rangeM2:  cfg.RangeM * cfg.RangeM,
		collide2: sum * sum,
		reach:    cellReach(cfg.RangeM, cfg.CellM),
		pos:      make(map[string]Position),
		byName:   make(map[string]*tuneState),
		cells:    make(map[cellKey][]*tuneState),
	}
}

// Spatial reports whether the spatial medium is enabled.
func (c *Channel) Spatial() bool { return c.spatial != nil }

// cellReach is how many cells away from the transmitter's cell the
// delivery disc can still touch a listener.
func cellReach(rangeM, cellM float64) int32 {
	r := math.Ceil(rangeM / cellM)
	if r < 1 {
		r = 1
	}
	if r > 1<<20 { // a degenerate range/cell ratio; scan stays finite
		r = 1 << 20
	}
	return int32(r)
}

// cellCoord quantises one coordinate, clamped so pathological float
// inputs cannot overflow the int32 key space (correctness is preserved
// either way — the distance check filters — only cell bucketing degrades).
func cellCoord(v, cellM float64) int32 {
	f := math.Floor(v / cellM)
	if f > math.MaxInt32 {
		return math.MaxInt32
	}
	if f < math.MinInt32 {
		return math.MinInt32
	}
	return int32(f)
}

func (sp *spatialState) cellOf(p Position) cellKey {
	return cellKey{cellCoord(p.X, sp.cfg.CellM), cellCoord(p.Y, sp.cfg.CellM)}
}

// Place declares (or updates) the position of the named radio. Every
// transmitter and listener of a spatial channel must be placed before
// its first Transmit or Tune. Re-placing a registered listener moves it
// between index cells immediately — a packet already mid-air keeps the
// receiver snapshot taken at its start, matching the global medium's
// delivery contract.
func (c *Channel) Place(name string, p Position) {
	sp := c.spatial
	if sp == nil {
		panic("channel: Place requires EnableSpatial")
	}
	sp.pos[name] = p
	if st := sp.byName[name]; st != nil {
		old := sp.cellOf(st.pos)
		st.pos = p
		if nk := sp.cellOf(p); nk != old {
			sp.unbucket(st, old)
			sp.cells[nk] = append(sp.cells[nk], st)
		}
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

// register indexes a newly created tuneState: position lookup, name
// uniqueness, cell bucket.
func (sp *spatialState) register(st *tuneState) {
	name := st.l.Name()
	p, ok := sp.pos[name]
	if !ok {
		panic(fmt.Sprintf("channel: listener %q tuned on a spatial medium without a position (call Place first)", name))
	}
	if sp.byName[name] != nil {
		panic(fmt.Sprintf("channel: duplicate listener name %q on a spatial medium", name))
	}
	sp.byName[name] = st
	st.pos = p
	k := sp.cellOf(p)
	sp.cells[k] = append(sp.cells[k], st)
}

// unbucket removes st from the cell slice it currently occupies.
func (sp *spatialState) unbucket(st *tuneState, k cellKey) {
	bucket := sp.cells[k]
	for i, other := range bucket {
		if other == st {
			bucket[i] = bucket[len(bucket)-1]
			sp.cells[k] = bucket[:len(bucket)-1]
			return
		}
	}
}

// txPosition resolves a transmitter's position.
func (sp *spatialState) txPosition(from string) Position {
	p, ok := sp.pos[from]
	if !ok {
		panic(fmt.Sprintf("channel: transmitter %q has no position (call Place first)", from))
	}
	return p
}

// gatherEligible appends every listener the transmission can deliver
// to — tuned to freq, idle, in the delivery disc — scanning only the
// cell neighbourhood the disc touches. The caller sorts the result, so
// cell iteration order is irrelevant (the determinism contract above).
func (sp *spatialState) gatherEligible(tx *Transmission, from string) {
	take := func(st *tuneState) {
		if st.on && st.freq == tx.Freq && st.since <= tx.Start && st.busy == nil &&
			st.l.Name() != from && dist2(st.pos, tx.pos) <= sp.rangeM2 {
			tx.eligible = append(tx.eligible, st)
			st.busy = tx
		}
	}
	center := sp.cellOf(tx.pos)
	// The delivery disc spans at most `reach` cells in each direction;
	// saturating adds keep degenerate keys from wrapping.
	lox, hix := satAdd(center.x, -sp.reach), satAdd(center.x, sp.reach)
	loy, hiy := satAdd(center.y, -sp.reach), satAdd(center.y, sp.reach)
	// When the range is wide relative to the cell size (the equivalence
	// harness's "infinite range", or a degenerate config) the
	// neighbourhood holds more cells than the world has occupied ones;
	// walking the occupied set is then strictly cheaper and — because
	// the caller sorts — yields the identical snapshot.
	side := int64(hix-lox) + 1
	if side*side > int64(len(sp.cells)) {
		for k, bucket := range sp.cells {
			if k.x < lox || k.x > hix || k.y < loy || k.y > hiy {
				continue
			}
			for _, st := range bucket {
				take(st)
			}
		}
		return
	}
	for cx := lox; ; cx++ {
		for cy := loy; ; cy++ {
			for _, st := range sp.cells[cellKey{cx, cy}] {
				take(st)
			}
			if cy == hiy {
				break
			}
		}
		if cx == hix {
			break
		}
	}
}

// satAdd adds with saturation at the int32 bounds.
func satAdd(a, b int32) int32 {
	s := int64(a) + int64(b)
	if s > math.MaxInt32 {
		return math.MaxInt32
	}
	if s < math.MinInt32 {
		return math.MinInt32
	}
	return int32(s)
}
