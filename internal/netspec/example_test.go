package netspec_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/packet"
)

// Build compiles one declarative Spec into a running world. Here two
// piconets share the medium with mixed traffic — an HV3 voice stream
// on the first, a saturating bulk ACL pump on the second — and the
// unified Metrics surface reports both service classes from one read.
func ExampleBuild() {
	s := core.NewSimulation(core.Options{Seed: 7})
	w, err := netspec.Build(s, netspec.Spec{
		Piconets: []netspec.Piconet{
			{Slaves: 1}, // voice piconet
			{Slaves: 1}, // bulk piconet
		},
		Traffic: []netspec.Traffic{
			{Kind: netspec.TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3},
			{Kind: netspec.TrafficBulk, Piconet: 1},
		},
	})
	if err != nil {
		panic(err)
	}
	w.Start()
	s.RunSlots(64)
	w.ResetMetrics()
	s.RunSlots(4000)

	m := w.Metrics()
	fmt.Println("piconets:", len(w.Piconets))
	fmt.Println("voice streams:", len(m.Voice))
	fmt.Println("voice frames delivered:", m.Voice[0].RxFrames > 0)
	fmt.Println("bulk bytes delivered:", m.PerPiconet[1] > 0)
	fmt.Println("window slots:", m.Slots)
	// Output:
	// piconets: 2
	// voice streams: 1
	// voice frames delivered: true
	// bulk bytes delivered: true
	// window slots: 4000
}

// A malformed stanza comes back as a named validation error instead of
// a half-built world.
func ExampleBuild_validation() {
	_, err := netspec.Build(core.NewSimulation(core.Options{Seed: 1}), netspec.Spec{
		Piconets: []netspec.Piconet{{Slaves: 3}},
		Bridges:  []netspec.Bridge{{A: 0, B: 2}},
	})
	fmt.Println(err)
	// Output:
	// netspec: bridge[0]: references unknown piconet 2 (world has 1)
}
