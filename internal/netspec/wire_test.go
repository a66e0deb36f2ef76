package netspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// roundTripCases are representative worlds exercising every stanza
// kind the wire format carries: plain piconets, bridges with flows,
// voice reservations, jammers with adaptive and oracle AFH, power
// modes, probes and all three placement geometries.
func roundTripCases() map[string]Spec {
	return map[string]Spec{
		"minimal": {
			Piconets: []Piconet{{Slaves: 1}},
		},
		"office-grid": {
			Piconets:  slices.Repeat([]Piconet{{Slaves: 1, TpollSlots: TpollNever}}, 3),
			Traffic:   []Traffic{{Kind: TrafficBulk, Piconet: AllPiconets}},
			Placement: &Placement{Kind: PlaceGrid, RangeM: 12, SpacingM: 10, InterferenceM: 22},
		},
		"voice-sniff": {
			Piconets: []Piconet{{Slaves: 2, Name: "v"}},
			Traffic: []Traffic{
				{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3, Slave: 1},
				{Kind: TrafficBulk, Piconet: 0, Slave: 2, PacketType: packet.TypeDM1},
			},
			Modes: []PowerMode{{Kind: SniffMode, Piconet: 0, Slave: 2, TsniffSlots: 100}},
		},
		"scatternet-flow": {
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1, PresenceDuty: 0.8}},
			Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(1, 1), SDUBytes: 64}},
			Probes:   []Probe{{Name: "relay", Kind: ProbeBridgeActivity}},
		},
		"jammer-afh": {
			Piconets: []Piconet{
				{Slaves: 1, AFH: AFHAdaptive, AssessWindowSlots: 2000},
				{Slaves: 1, AFH: AFHOracle, OracleLo: 30, OracleHi: 52},
			},
			Traffic: []Traffic{{Kind: TrafficBulk, Piconet: AllPiconets}},
			Jammers: []Jammer{{Lo: 30, Hi: 52, Duty: 0.9}},
			Probes: []Probe{
				{Name: "masters", Kind: ProbeMasterActivity, Piconet: AllPiconets},
			},
		},
		"poisson-rooms": {
			Piconets:  []Piconet{{Slaves: 2}, {Slaves: 2}},
			Traffic:   []Traffic{{Kind: TrafficPoisson, Piconet: AllPiconets, MeanGapSlots: 64, BurstBytes: 128}},
			Modes:     []PowerMode{{Kind: HoldMode, Piconet: 1, Slave: 1, TholdSlots: 200}},
			Placement: &Placement{Kind: PlaceRooms, RangeM: 15, SpacingM: 20, PiconetsPerRoom: 2},
		},
		"disc-hall": {
			Piconets:  slices.Repeat([]Piconet{{Slaves: 1, R1PageScan: true}}, 2),
			Traffic:   []Traffic{{Kind: TrafficBulk, Piconet: AllPiconets}},
			Placement: &Placement{Kind: PlaceDisc, RangeM: 30, RadiusM: 8},
		},
	}
}

// buildAndMeasure builds the spec at the seed, runs a short window and
// returns the Metrics JSON — the full observable output of a world.
func buildAndMeasure(t *testing.T, spec Spec, seed uint64, slots uint64) []byte {
	t.Helper()
	s := core.NewSimulation(core.Options{Seed: seed})
	w, err := Build(s, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Start()
	w.ResetMetrics()
	s.RunSlots(slots)
	out, err := json.Marshal(w.Metrics())
	if err != nil {
		t.Fatalf("marshaling metrics: %v", err)
	}
	return out
}

// strictUnmarshal decodes with unknown fields rejected, the posture of
// every wire entry point (the service API and btsim -spec).
func strictUnmarshal(data []byte, spec *Spec) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(spec)
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for name, spec := range roundTripCases() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			enc, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			var back Spec
			if err := strictUnmarshal(enc, &back); err != nil {
				t.Fatalf("Unmarshal of own output: %v\n%s", err, enc)
			}
			c1, err := spec.Canonical()
			if err != nil {
				t.Fatalf("Canonical: %v", err)
			}
			c2, err := back.Canonical()
			if err != nil {
				t.Fatalf("Canonical after round trip: %v", err)
			}
			if !bytes.Equal(c1, c2) {
				t.Fatalf("canonical form changed across the round trip:\n  before: %s\n  after:  %s", c1, c2)
			}
			// The real contract: both sides build the same world.
			m1 := buildAndMeasure(t, spec, 7, 600)
			m2 := buildAndMeasure(t, back, 7, 600)
			if !bytes.Equal(m1, m2) {
				t.Fatalf("metrics diverged across the round trip:\n  before: %s\n  after:  %s", m1, m2)
			}
			// And the resolved form round-trips to itself (defaults are
			// stable under re-resolution).
			r1, err := spec.Resolved().Canonical()
			if err != nil {
				t.Fatalf("Canonical of resolved: %v", err)
			}
			if !bytes.Equal(c1, r1) {
				t.Fatalf("Canonical not idempotent:\n  once:  %s\n  twice: %s", c1, r1)
			}
		})
	}
}

func TestSpecHashDistinguishesSpecs(t *testing.T) {
	a := Spec{Piconets: []Piconet{{Slaves: 1}}}
	b := Spec{Piconets: []Piconet{{Slaves: 2}}}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Fatalf("distinct specs hash identically: %s", ha)
	}
	// A terse spec and its resolved form are the same world, so they
	// must share a hash — that is what makes the service cache sound.
	hr, err := a.Resolved().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hr {
		t.Fatalf("terse %s != resolved %s", ha, hr)
	}
}

func TestSpecUnknownEnumRefusesToMarshal(t *testing.T) {
	spec := Spec{
		Piconets: []Piconet{{Slaves: 1}},
		Traffic:  []Traffic{{Kind: TrafficKind(99), Piconet: 0}},
	}
	if _, err := json.Marshal(spec); err == nil {
		t.Fatal("unnamed enum value marshaled; the wire would carry an unparseable spec")
	}
	var k TrafficKind
	if err := k.UnmarshalText([]byte("warp")); err == nil {
		t.Fatal("unknown enum name parsed")
	}
}

// FuzzSpecJSONRoundTrip is the wire format's contract check: any JSON
// input either fails to decode, validates into a *StanzaError (and
// Build refuses it the same way), or is a valid spec whose
// Marshal→Unmarshal→Build reproduces the original world's metrics byte
// for byte. Nothing panics.
func FuzzSpecJSONRoundTrip(f *testing.F) {
	addSpec := func(spec Spec) {
		enc, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, spec := range roundTripCases() {
		addSpec(spec)
	}
	// Invalid shapes: no piconets, too many members, bad enum, bad
	// band, duplicate names.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"piconets":[{"slaves":9}]}`))
	f.Add([]byte(`{"piconets":[{"slaves":1}],"traffic":[{"kind":"warp"}]}`))
	f.Add([]byte(`{"piconets":[{"slaves":1}],"jammers":[{"lo":70,"hi":200,"duty":0.5}]}`))
	f.Add([]byte(`{"piconets":[{"name":"a","slaves":1},{"name":"a","slaves":1}]}`))
	// Flow stanzas that must fail validation rather than panic in
	// World.Start: no bridge chain between the endpoints' piconets, an
	// endpoint on a detached piconet, a destination name too long for
	// the relay header, and a 256th flow.
	pair := []Bridge{{A: 0, B: 1}}
	addSpec(Spec{
		Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}, {Slaves: 1}},
		Bridges:  pair,
		Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(2, 1)}},
	})
	addSpec(Spec{
		Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}, {Slaves: 1, Detached: true}},
		Bridges:  pair,
		Traffic:  []Traffic{{Kind: TrafficFlow, From: SlaveName(2, 1), To: MasterName(0)}},
	})
	long := strings.Repeat("n", 250)
	addSpec(Spec{
		Piconets: []Piconet{{Slaves: 1}, {Name: long, Slaves: 1}},
		Bridges:  pair,
		Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: long + ".slave1"}},
	})
	addSpec(Spec{
		Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
		Bridges:  pair,
		Traffic:  slices.Repeat([]Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(1, 1)}}, 256),
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return // not a Spec at all
		}
		if err := spec.Validate(); err != nil {
			var se *StanzaError
			if !errors.As(err, &se) {
				t.Fatalf("Validate returned %T, want *StanzaError: %v", err, err)
			}
			if _, berr := Build(core.NewSimulation(core.Options{Seed: 1}), spec); berr == nil {
				t.Fatalf("Validate rejected the spec but Build accepted it: %v", err)
			}
			return
		}
		// Bound the fuzz budget: building a world pages every link on
		// the air, so cap the device count rather than the input size.
		devices := len(spec.Bridges)
		for i := range spec.Piconets {
			devices += spec.Piconets[i].Slaves + 1
		}
		if len(spec.Piconets) > 4 || devices > 10 {
			t.Skip("world too large for the fuzz budget")
		}
		// Bound traffic intensity the same way: a poisson pump with a
		// nanoslot mean gap or a gigabyte burst is a valid world that
		// simply costs more than a fuzz iteration can afford.
		for i := range spec.Traffic {
			tr := &spec.Traffic[i]
			if tr.Kind == TrafficPoisson && tr.MeanGapSlots < 1 {
				t.Skip("sub-slot poisson gap too hot for the fuzz budget")
			}
			if tr.BurstBytes > 1<<16 || tr.SDUBytes > 1<<16 || tr.PumpDepth > 64 {
				t.Skip("traffic volume too large for the fuzz budget")
			}
		}

		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec refused to marshal: %v", err)
		}
		var back Spec
		if err := strictUnmarshal(enc, &back); err != nil {
			t.Fatalf("wire output failed strict decode: %v\n%s", err, enc)
		}
		c1, err := spec.Canonical()
		if err != nil {
			t.Fatalf("Canonical: %v", err)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatalf("Canonical after round trip: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical form changed across the round trip:\n  before: %s\n  after:  %s", c1, c2)
		}

		run := func(sp Spec) ([]byte, error) {
			s := core.NewSimulation(core.Options{Seed: 11})
			w, err := Build(s, sp)
			if err != nil {
				return nil, err
			}
			w.Start()
			w.ResetMetrics()
			s.RunSlots(400)
			return json.Marshal(w.Metrics())
		}
		m1, err1 := run(spec)
		m2, err2 := run(back)
		switch {
		case err1 != nil || err2 != nil:
			// Build-time failures (a random layout putting a bridge out
			// of reach) are legal — but both sides of the wire must fail
			// identically.
			if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
				t.Fatalf("Build diverged across the round trip:\n  before: %v\n  after:  %v", err1, err2)
			}
		case !bytes.Equal(m1, m2):
			t.Fatalf("metrics diverged across the round trip:\n  before: %s\n  after:  %s", m1, m2)
		}
	})
}
