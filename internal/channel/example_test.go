package channel_test

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/sim"
)

// printRx is a minimal channel.Listener that narrates what it hears.
type printRx struct{ name string }

func (p *printRx) Name() string { return p.name }

func (p *printRx) RxStart(tx *channel.Transmission) {
	fmt.Printf("%s: packet from %s started on channel %d\n", p.name, tx.From, tx.Freq)
}

func (p *printRx) RxEnd(tx *channel.Transmission, rx *bits.Vec, collided bool) {
	if collided {
		fmt.Printf("%s: garbled reception\n", p.name)
		return
	}
	fmt.Printf("%s: received %d bits\n", p.name, rx.Len())
}

// A transmission reaches exactly the listeners tuned to its RF channel
// when the first bit hits the air; frequency selectivity is the whole
// FHSS story.
func ExampleChannel_Transmit() {
	k := sim.NewKernel()
	ch := channel.New(k, sim.NewRand(1), channel.Config{})

	slave := &printRx{name: "slave"}
	other := &printRx{name: "other"}
	ch.Tune(slave, 40)
	ch.Tune(other, 41) // one channel off: hears nothing

	k.Schedule(0, func() {
		ch.Transmit("master", 40, bits.FromBools(true, false, true, true), nil)
	})
	k.Run()
	fmt.Println("deliveries:", ch.Stats().Deliveries)
	// Output:
	// slave: packet from master started on channel 40
	// slave: received 4 bits
	// deliveries: 1
}

// Retuning mid-packet abandons the reception — the correlator cannot
// follow a receiver that left the channel, even if it comes straight
// back.
func ExampleChannel_Tune() {
	k := sim.NewKernel()
	ch := channel.New(k, sim.NewRand(1), channel.Config{})

	slave := &printRx{name: "slave"}
	ch.Tune(slave, 10)
	k.Schedule(0, func() {
		ch.Transmit("master", 10, bits.FromBools(true, true, false, true), nil)
	})
	// Hop away while the packet is still on the air: no RxEnd arrives.
	k.Schedule(2, func() { ch.Tune(slave, 20) })
	k.Run()
	fmt.Println("tuned to:", ch.Radio(slave).Freq())
	fmt.Println("deliveries:", ch.Stats().Deliveries)
	// Output:
	// slave: packet from master started on channel 10
	// tuned to: 20
	// deliveries: 0
}
