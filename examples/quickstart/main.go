// Quickstart: build a two-device world, discover, connect and exchange
// data through the HCI API — the ten-minute tour of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/hci"
)

func main() {
	// A simulation owns the event kernel and the shared radio channel.
	// Everything is deterministic given the seed.
	sim := core.NewSimulation(core.Options{Seed: 42, BER: 0.001})

	// Two devices, each behind an HCI front end (hci.Attach): a laptop
	// and a phone.
	laptop := hci.Attach(sim.AddDevice("laptop", baseband.Config{
		Addr: baseband.BDAddr{LAP: 0x10AB42, UAP: 0x12, NAP: 0x00C0},
	}))
	phone := hci.Attach(sim.AddDevice("phone", baseband.Config{
		Addr: baseband.BDAddr{LAP: 0x77DE01, UAP: 0x34, NAP: 0x00C1},
	}))

	// Event handlers: the laptop drives the connection, the phone answers.
	var handle hci.ConnHandle
	laptop.Events = func(e hci.Event) {
		switch ev := e.(type) {
		case hci.InquiryResultEvent:
			fmt.Printf("[laptop] discovered %v (clock %d)\n", ev.Result.Addr, ev.Result.CLKN)
		case hci.InquiryCompleteEvent:
			if !ev.OK {
				log.Fatal("inquiry failed")
			}
			// Move the phone from inquiry scan to page scan, then connect.
			phone.WriteScanEnable(false, true)
			if err := laptop.CreateConnection(phone.Dev().Addr(), 2048); err != nil {
				log.Fatal(err)
			}
		case hci.ConnectionCompleteEvent:
			if !ev.OK {
				log.Fatal("connection failed")
			}
			handle = ev.Handle
			fmt.Printf("[laptop] connected to %v, handle %d\n", ev.Peer, ev.Handle)
			if err := laptop.SendData(handle, []byte("ping from the laptop")); err != nil {
				log.Fatal(err)
			}
		case hci.DataEvent:
			fmt.Printf("[laptop] received %q\n", ev.Payload)
		}
	}
	replied := false
	phone.Events = func(e hci.Event) {
		switch ev := e.(type) {
		case hci.DataEvent:
			// Long payloads arrive as DM1-sized chunks; reply to the burst
			// once.
			fmt.Printf("[phone ] received chunk %q\n", ev.Payload)
			if !replied {
				replied = true
				if err := phone.SendData(ev.Handle, []byte("pong!")); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// Make the phone discoverable and start discovery.
	phone.WriteScanEnable(true, false)
	laptop.Inquiry(4096, 1)

	// Run the world for four simulated seconds.
	sim.RunSlots(6400)

	ltx, lrx := core.Activity(laptop.Dev())
	ptx, prx := core.Activity(phone.Dev())
	fmt.Printf("RF activity — laptop: tx %.3f%% rx %.3f%%; phone: tx %.3f%% rx %.3f%%\n",
		ltx*100, lrx*100, ptx*100, prx*100)
}
