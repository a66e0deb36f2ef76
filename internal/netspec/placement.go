package netspec

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/sim"
)

// This file holds the Placement stanza: the declarative bridge between
// a Spec and the channel's spatial medium (channel.EnableSpatial).
// Without a Placement the world stands on the paper's single shared
// ether, exactly as before — the spatial model is fully opt-in.
//
// Determinism: layouts that draw randomness (rooms, disc, the slave
// scatter) use a stream derived from the simulation seed by
// core.Simulation.DerivedRand, which does NOT advance the root RNG.
// The same seed therefore builds the exact same devices (clock phases,
// noise draws) with or without a Placement — the property the spatial
// reference-model equivalence suite pins byte for byte.

// PlacementKind selects the deployment geometry.
type PlacementKind int

// Placement geometries.
const (
	// PlaceGrid puts piconet masters on a rectangular grid (an office
	// floor): master i sits at column i%Columns, row i/Columns, with
	// SpacingM meters of pitch.
	PlaceGrid PlacementKind = iota + 1
	// PlaceRooms clusters piconets into rooms: rooms sit on their own
	// grid with SpacingM pitch and each hosts PiconetsPerRoom piconets
	// scattered uniformly within ClusterRadiusM of the room center.
	PlaceRooms
	// PlaceDisc scatters piconet masters uniformly over a disc of
	// RadiusM around the origin (a conference hall).
	PlaceDisc
)

func (k PlacementKind) String() string {
	switch k {
	case PlaceGrid:
		return "grid"
	case PlaceRooms:
		return "rooms"
	case PlaceDisc:
		return "disc"
	}
	return fmt.Sprintf("PlacementKind(%d)", int(k))
}

// Geometry bounds: the simulator models rooms and halls, not planets.
// Bounded coordinates keep every squared distance the channel compares
// finite — no overflow to Inf, no Inf-Inf NaN — for every spec that
// validates.
const (
	// MinRangeM and MaxRangeM bound the radio range. MaxRangeM is wide
	// enough that a placement with RangeM = MaxRangeM covers any legal
	// floor — the "infinite range" of the equivalence harness.
	MinRangeM = 0.001
	MaxRangeM = 1e9
	// MaxFloorM bounds every layout dimension (pitch, radii, spreads).
	MaxFloorM = 1e6
)

// Placement declares the world's geometry and range model. One stanza
// covers the whole spec (the medium is shared); a nil Spec.Placement
// keeps the global ether.
type Placement struct {
	// Kind selects the deployment geometry. Required.
	Kind PlacementKind `json:"kind"`

	// RangeM is the delivery radius in meters: a receiver inside it
	// decodes the transmission, outside it hears nothing decodable.
	// Required, in [MinRangeM, MaxRangeM].
	RangeM float64 `json:"range_m"`
	// InterferenceM is the outer radius of the interference-only
	// annulus: between RangeM and InterferenceM a transmission cannot
	// be decoded but still feeds the collision resolver. Defaults to
	// RangeM (no annulus); must be in [RangeM, MaxRangeM].
	InterferenceM float64 `json:"interference_m,omitempty"`

	// SpacingM is the grid pitch (PlaceGrid: between masters,
	// PlaceRooms: between room centers), in (0, MaxFloorM]. Default 10.
	SpacingM float64 `json:"spacing_m,omitempty"`
	// Columns is the grid's column count (PlaceGrid). Defaults to
	// ceil(sqrt(piconets)) — a roughly square floor.
	Columns int `json:"columns,omitempty"`
	// RadiusM is the disc radius (PlaceDisc). Defaults to
	// SpacingM * sqrt(piconets), keeping density roughly constant as
	// worlds grow.
	RadiusM float64 `json:"radius_m,omitempty"`
	// ClusterRadiusM is the in-room scatter radius (PlaceRooms), in
	// [0, MaxFloorM]. Default SpacingM/4.
	ClusterRadiusM float64 `json:"cluster_radius_m,omitempty"`
	// PiconetsPerRoom is how many piconets share a room (PlaceRooms).
	// Default 4.
	PiconetsPerRoom int `json:"piconets_per_room,omitempty"`

	// SlaveSpreadM scatters each piconet's slaves (and detached
	// devices) uniformly within this radius of their master. Must stay
	// below RangeM so paging always reaches. Default min(2, RangeM/2).
	SlaveSpreadM float64 `json:"slave_spread_m,omitempty"`
}

// withDefaults fills the documented defaults in place (the stanza has
// already been deep-copied by Spec.withDefaults). n is the spec's
// piconet count, which sizes the default grid and disc.
func (p *Placement) withDefaults(n int) {
	if p.InterferenceM == 0 {
		p.InterferenceM = p.RangeM
	}
	if p.SpacingM == 0 {
		p.SpacingM = 10
	}
	if p.Columns == 0 {
		p.Columns = int(math.Ceil(math.Sqrt(float64(n))))
		if p.Columns < 1 {
			p.Columns = 1
		}
	}
	if p.RadiusM == 0 {
		p.RadiusM = p.SpacingM * math.Sqrt(float64(n))
	}
	if p.ClusterRadiusM == 0 {
		p.ClusterRadiusM = p.SpacingM / 4
	}
	if p.PiconetsPerRoom == 0 {
		p.PiconetsPerRoom = 4
	}
	if p.SlaveSpreadM == 0 {
		p.SlaveSpreadM = math.Min(2, p.RangeM/2)
	}
}

// inRange rejects NaN by construction: !(lo <= v && v <= hi) is true
// for every NaN.
func inRange(v, lo, hi float64) bool { return lo <= v && v <= hi }

// validate checks the defaulted stanza. The bounds exist for
// determinism as much as sanity: they keep every coordinate small
// enough that the channel's squared distances cannot overflow.
func (p *Placement) validate() error {
	const stanza = "placement"
	if p.Kind < PlaceGrid || p.Kind > PlaceDisc {
		return stanzaErr(stanza, 0, "", "unknown placement kind %d", int(p.Kind))
	}
	if !inRange(p.RangeM, MinRangeM, MaxRangeM) {
		return stanzaErr(stanza, 0, "", "range %gm outside [%g, %g]", p.RangeM, float64(MinRangeM), float64(MaxRangeM))
	}
	if !inRange(p.InterferenceM, p.RangeM, MaxRangeM) {
		return stanzaErr(stanza, 0, "", "interference radius %gm outside [range %gm, %g]",
			p.InterferenceM, p.RangeM, float64(MaxRangeM))
	}
	if !inRange(p.SpacingM, MinRangeM, MaxFloorM) {
		return stanzaErr(stanza, 0, "", "spacing %gm outside [%g, %g]", p.SpacingM, float64(MinRangeM), float64(MaxFloorM))
	}
	if p.Columns < 1 {
		return stanzaErr(stanza, 0, "", "grid needs at least 1 column, got %d", p.Columns)
	}
	if !inRange(p.RadiusM, MinRangeM, MaxFloorM) {
		return stanzaErr(stanza, 0, "", "disc radius %gm outside [%g, %g]", p.RadiusM, float64(MinRangeM), float64(MaxFloorM))
	}
	if !inRange(p.ClusterRadiusM, 0, MaxFloorM) {
		return stanzaErr(stanza, 0, "", "cluster radius %gm outside [0, %g]", p.ClusterRadiusM, float64(MaxFloorM))
	}
	if p.PiconetsPerRoom < 1 {
		return stanzaErr(stanza, 0, "", "rooms need at least 1 piconet each, got %d", p.PiconetsPerRoom)
	}
	if !(p.SlaveSpreadM > 0 && p.SlaveSpreadM < p.RangeM) {
		return stanzaErr(stanza, 0, "", "slave spread %gm must be in (0, range %gm) so paging always reaches",
			p.SlaveSpreadM, p.RangeM)
	}
	if p.SlaveSpreadM > MaxFloorM {
		return stanzaErr(stanza, 0, "", "slave spread %gm exceeds the %g floor bound", p.SlaveSpreadM, float64(MaxFloorM))
	}
	return nil
}

// piconetLayout is one piconet's computed geometry.
type piconetLayout struct {
	master channel.Position
	slaves []channel.Position
}

// layout computes every piconet's positions with a fixed draw order
// (piconet by piconet: master first, then slaves 1..k), so the layout
// is a pure function of (spec, rng stream).
func (s Spec) layout(rng *sim.Rand) []piconetLayout {
	p := s.Placement
	out := make([]piconetLayout, len(s.Piconets))
	for i := range s.Piconets {
		var m channel.Position
		switch p.Kind {
		case PlaceGrid:
			m = channel.Position{
				X: float64(i%p.Columns) * p.SpacingM,
				Y: float64(i/p.Columns) * p.SpacingM,
			}
		case PlaceRooms:
			room := i / p.PiconetsPerRoom
			rooms := (len(s.Piconets) + p.PiconetsPerRoom - 1) / p.PiconetsPerRoom
			cols := int(math.Ceil(math.Sqrt(float64(rooms))))
			center := channel.Position{
				X: float64(room%cols) * p.SpacingM,
				Y: float64(room/cols) * p.SpacingM,
			}
			m = scatter(rng, center, p.ClusterRadiusM)
		case PlaceDisc:
			m = scatter(rng, channel.Position{}, p.RadiusM)
		}
		out[i].master = m
		out[i].slaves = make([]channel.Position, s.Piconets[i].Slaves)
		for j := range out[i].slaves {
			out[i].slaves[j] = scatter(rng, m, p.SlaveSpreadM)
		}
	}
	return out
}

// scatter draws a uniform point on the disc of radius r around c
// (exactly two draws, so the layout's draw order stays fixed even for
// r = 0).
func scatter(rng *sim.Rand, c channel.Position, r float64) channel.Position {
	rad := r * math.Sqrt(rng.Float64())
	theta := 2 * math.Pi * rng.Float64()
	return channel.Position{X: c.X + rad*math.Cos(theta), Y: c.Y + rad*math.Sin(theta)}
}

// bridgePosition is the midpoint of the two joined masters — the spot
// a real deployment would station a relay.
func bridgePosition(a, b channel.Position) channel.Position {
	return channel.Position{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
}

// checkBridgeReach verifies, post-layout, that every bridge's midpoint
// position can reach both of its masters: layouts are (for rooms and
// disc) random, so this is a build-time check rather than a static
// validation.
func (w *World) checkBridgeReach() error {
	p := w.spec.Placement
	for i := range w.spec.Bridges {
		b := &w.spec.Bridges[i]
		mid := bridgePosition(w.layout[b.A].master, w.layout[b.B].master)
		for _, pi := range []int{b.A, b.B} {
			if d := math.Sqrt(dist2(mid, w.layout[pi].master)); d > p.RangeM {
				return stanzaErr("bridge", i, "",
					"placement puts the bridge %.1fm from piconet %d's master — beyond the %.1fm range",
					d, pi, p.RangeM)
			}
		}
	}
	return nil
}

func dist2(a, b channel.Position) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}
