package netspec

// This file is the Spec wire format: JSON field tags live on the stanza
// structs, the enum kinds encode as the stable names below, and
// Canonical renders the one encoding the service layer hashes for its
// result cache. The contract (pinned by FuzzSpecJSONRoundTrip and
// TestSpecJSONRoundTrip) is that Marshal→Unmarshal→Build reproduces a
// world bit for bit: every stanza field either survives the round trip
// verbatim or is a documented default that withDefaults re-fills
// identically on both sides.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// enumText implements both halves of a text codec over a name table.
func enumText(kind string, names map[int]string, v int) ([]byte, error) {
	if n, ok := names[v]; ok {
		return []byte(n), nil
	}
	return nil, fmt.Errorf("netspec: %s %d has no wire name", kind, v)
}

func enumParse(kind string, names map[int]string, text []byte) (int, error) {
	s := string(text)
	for v, n := range names {
		if n == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("netspec: unknown %s %q", kind, s)
}

var afhNames = map[int]string{
	int(AFHOff): "off", int(AFHOracle): "oracle", int(AFHAdaptive): "adaptive",
}

// MarshalText encodes the mode as "off", "oracle" or "adaptive".
func (m AFHMode) MarshalText() ([]byte, error) { return enumText("AFH mode", afhNames, int(m)) }

// UnmarshalText decodes a mode name produced by MarshalText.
func (m *AFHMode) UnmarshalText(text []byte) error {
	v, err := enumParse("AFH mode", afhNames, text)
	if err != nil {
		return err
	}
	*m = AFHMode(v)
	return nil
}

var trafficNames = map[int]string{
	int(TrafficBulk): "bulk", int(TrafficVoice): "voice",
	int(TrafficPoisson): "poisson", int(TrafficFlow): "flow",
}

// MarshalText encodes the kind under its String name.
func (k TrafficKind) MarshalText() ([]byte, error) {
	return enumText("traffic kind", trafficNames, int(k))
}

// UnmarshalText decodes a kind name produced by MarshalText.
func (k *TrafficKind) UnmarshalText(text []byte) error {
	v, err := enumParse("traffic kind", trafficNames, text)
	if err != nil {
		return err
	}
	*k = TrafficKind(v)
	return nil
}

var powerNames = map[int]string{
	int(SniffMode): "sniff", int(HoldMode): "hold", int(ParkMode): "park",
}

// MarshalText encodes the kind under its String name.
func (k PowerKind) MarshalText() ([]byte, error) { return enumText("power kind", powerNames, int(k)) }

// UnmarshalText decodes a kind name produced by MarshalText.
func (k *PowerKind) UnmarshalText(text []byte) error {
	v, err := enumParse("power kind", powerNames, text)
	if err != nil {
		return err
	}
	*k = PowerKind(v)
	return nil
}

var probeNames = map[int]string{
	int(ProbeSlaveActivity):  "slave_activity",
	int(ProbeMasterActivity): "master_activity",
	int(ProbeBridgeActivity): "bridge_activity",
}

// MarshalText encodes the probe kind as a stable snake_case name.
func (k ProbeKind) MarshalText() ([]byte, error) { return enumText("probe kind", probeNames, int(k)) }

// UnmarshalText decodes a probe-kind name produced by MarshalText.
func (k *ProbeKind) UnmarshalText(text []byte) error {
	v, err := enumParse("probe kind", probeNames, text)
	if err != nil {
		return err
	}
	*k = ProbeKind(v)
	return nil
}

var placementNames = map[int]string{
	int(PlaceGrid): "grid", int(PlaceRooms): "rooms", int(PlaceDisc): "disc",
}

// MarshalText encodes the geometry under its String name.
func (k PlacementKind) MarshalText() ([]byte, error) {
	return enumText("placement kind", placementNames, int(k))
}

// UnmarshalText decodes a geometry name produced by MarshalText.
func (k *PlacementKind) UnmarshalText(text []byte) error {
	v, err := enumParse("placement kind", placementNames, text)
	if err != nil {
		return err
	}
	*k = PlacementKind(v)
	return nil
}

// Canonical returns the spec's canonical wire encoding: the JSON of the
// resolved spec (every documented default filled in), so two specs that
// build the same world — one terse, one with its defaults spelled out —
// canonicalise to the same bytes. The service layer's result cache keys
// on this encoding. Specs that cannot marshal (an enum without a wire
// name, a NaN coordinate) return the marshal error; such specs never
// validate either.
func (s Spec) Canonical() ([]byte, error) {
	return json.Marshal(s.Resolved())
}

// Hash returns the hex SHA-256 of the canonical encoding — the spec's
// identity in cache keys and logs.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}
