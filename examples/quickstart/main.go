// Quickstart: build a two-device world, discover, connect and exchange
// data through the HCI API — the ten-minute tour of the library.
//
// testdata/stdout.golden pins everything it prints; after an intended
// change, regenerate it with
//
//	go test ./examples/quickstart -update
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/hci"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
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
	// A handler cannot stop the simulation, so it keeps the first error
	// for run to return once the world has stopped.
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	var handle hci.ConnHandle
	laptop.Events = func(e hci.Event) {
		switch ev := e.(type) {
		case hci.InquiryResultEvent:
			fmt.Fprintf(w, "[laptop] discovered %v (clock %d)\n", ev.Result.Addr, ev.Result.CLKN)
		case hci.InquiryCompleteEvent:
			if !ev.OK {
				fail(errors.New("inquiry failed"))
				return
			}
			// Move the phone from inquiry scan to page scan, then connect.
			phone.WriteScanEnable(false, true)
			if err := laptop.CreateConnection(phone.Dev().Addr(), 2048); err != nil {
				fail(err)
			}
		case hci.ConnectionCompleteEvent:
			if !ev.OK {
				fail(errors.New("connection failed"))
				return
			}
			handle = ev.Handle
			fmt.Fprintf(w, "[laptop] connected to %v, handle %d\n", ev.Peer, ev.Handle)
			if err := laptop.SendData(handle, []byte("ping from the laptop")); err != nil {
				fail(err)
			}
		case hci.DataEvent:
			fmt.Fprintf(w, "[laptop] received %q\n", ev.Payload)
		}
	}
	replied := false
	phone.Events = func(e hci.Event) {
		switch ev := e.(type) {
		case hci.DataEvent:
			// Long payloads arrive as DM1-sized chunks; reply to the burst
			// once.
			fmt.Fprintf(w, "[phone ] received chunk %q\n", ev.Payload)
			if !replied {
				replied = true
				if err := phone.SendData(ev.Handle, []byte("pong!")); err != nil {
					fail(err)
				}
			}
		}
	}

	// Make the phone discoverable and start discovery.
	phone.WriteScanEnable(true, false)
	laptop.Inquiry(4096, 1)

	// Run the world for four simulated seconds.
	sim.RunSlots(6400)
	if runErr != nil {
		return runErr
	}

	ltx, lrx := core.Activity(laptop.Dev())
	ptx, prx := core.Activity(phone.Dev())
	fmt.Fprintf(w, "RF activity — laptop: tx %.3f%% rx %.3f%%; phone: tx %.3f%% rx %.3f%%\n",
		ltx*100, lrx*100, ptx*100, prx*100)
	return nil
}
