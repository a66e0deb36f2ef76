package netspec

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// FuzzPlacementValidation feeds arbitrary placement stanzas through
// validation and — whenever one validates — through a real Build. The
// contract under fuzz: Validate/Build never panic on any input; a
// rejection is always a typed *StanzaError; an accepted stanza stands
// up a working spatial world. CI runs a short -fuzz smoke on top of
// the seed corpus (see ci.yml).
func FuzzPlacementValidation(f *testing.F) {
	f.Add(int(PlaceGrid), 10.0, 20.0, 10.0, 4, 0.0, 0.0, 0, 2.0)
	f.Add(int(PlaceRooms), 10.0, 0.0, 25.0, 0, 0.0, 3.0, 2, 1.0)
	f.Add(int(PlaceDisc), 10.0, 10.0, 0.0, 0, 50.0, 0.0, 0, 0.0)
	f.Add(0, 0.0, 0.0, 0.0, 0, 0.0, 0.0, 0, 0.0)
	f.Add(int(PlaceGrid), math.NaN(), math.Inf(1), -1.0, -7, math.Inf(-1), math.NaN(), -1, math.NaN())
	f.Add(int(PlaceDisc), 1e9, 1e9, 1e6, 1, 1e6, 1e6, 1, 0.0005)
	f.Add(int(PlaceGrid), 1e-3, 0.0, 1e-3, 1, 0.0, 0.0, 0, 0.0)
	f.Add(99, 5.0, 5.0, 5.0, 5, 5.0, 5.0, 5, 1.0)
	f.Fuzz(func(t *testing.T, kind int, rangeM, interferenceM, spacingM float64,
		columns int, radiusM, clusterRadiusM float64, perRoom int, slaveSpreadM float64) {
		spec := Spec{
			Piconets: []Piconet{{Slaves: 2}},
			Placement: &Placement{
				Kind:            PlacementKind(kind),
				RangeM:          rangeM,
				InterferenceM:   interferenceM,
				SpacingM:        spacingM,
				Columns:         columns,
				RadiusM:         radiusM,
				ClusterRadiusM:  clusterRadiusM,
				PiconetsPerRoom: perRoom,
				SlaveSpreadM:    slaveSpreadM,
			},
		}
		if err := spec.Validate(); err != nil {
			var se *StanzaError
			if !errors.As(err, &se) {
				t.Fatalf("validation rejected the stanza with a %T, want *StanzaError: %v", err, err)
			}
			return
		}
		// The stanza validated: it must build into a running world. Any
		// panic here (distance overflow, unplaced device, paging out of
		// range) means validation let a poisonous geometry through.
		s := core.NewSimulation(core.Options{Seed: 0xFADE})
		w, err := Build(s, spec)
		if err != nil {
			var se *StanzaError
			if !errors.As(err, &se) {
				t.Fatalf("Build rejected a validated spec with a %T, want *StanzaError: %v", err, err)
			}
			return
		}
		w.Start()
		s.RunSlots(64)
		if got := s.Ch.Stats().Transmissions; got == 0 {
			t.Fatal("validated spatial world carried no transmissions at all")
		}
	})
}
