// filetransfer pushes a "file" over an L2CAP channel (the OBEX-style use
// case of the paper's stack diagram): connect, open a channel on a PSM,
// stream SDUs with segmentation/reassembly over the ACL link, and
// compare packet types under a noisy channel.
//
// testdata/stdout.golden pins everything it prints; after an intended
// change, regenerate it with
//
//	go test ./examples/filetransfer -update
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/l2cap"
	"repro/internal/packet"
)

const filePSM = 0x1005

func transfer(ber float64, ptype packet.Type, fileSize int) (slots uint64, ok bool) {
	sim := core.NewSimulation(core.Options{Seed: 31, BER: ber})
	sender := sim.AddDevice("sender", baseband.Config{Addr: baseband.BDAddr{LAP: 0xAA0001, UAP: 1}})
	receiver := sim.AddDevice("receiver", baseband.Config{Addr: baseband.BDAddr{LAP: 0xBB0002, UAP: 2}})
	sMux := l2cap.Attach(sender)
	rMux := l2cap.Attach(receiver)

	links := sim.BuildPiconet(sender, receiver)
	links[0].PacketType = ptype
	receiver.MasterLink().PacketType = ptype

	// The file travels as 1 kB SDUs; the receiver reassembles and counts.
	received := 0
	rMux.RegisterPSM(filePSM, func(ch *l2cap.Channel) {
		ch.OnSDU = func(sdu []byte) { received += len(sdu) }
	})

	start := sim.Now()
	sMux.Connect(links[0], filePSM, func(ch *l2cap.Channel, err error) {
		if err != nil {
			return
		}
		const sduSize = 1024
		for sent := 0; sent < fileSize; sent += sduSize {
			n := min(sduSize, fileSize-sent)
			if err := ch.Send(make([]byte, n)); err != nil {
				return
			}
		}
	})

	// Run until everything arrived or we give up.
	for i := 0; i < 200 && received < fileSize; i++ {
		sim.RunSlots(500)
	}
	return sim.Now() - start, received >= fileSize
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const fileSize = 16 * 1024
	fmt.Fprintf(w, "transferring a %d kB file over L2CAP\n\n", fileSize/1024)
	fmt.Fprintf(w, "%-8s %-10s %12s %12s\n", "type", "BER", "slots", "eff_kbps")
	for _, c := range []struct {
		ptype packet.Type
		ber   float64
		label string
	}{
		{packet.TypeDM1, 0, "0"},
		{packet.TypeDH5, 0, "0"},
		{packet.TypeDM3, 1.0 / 1000, "1/1000"},
		{packet.TypeDH5, 1.0 / 1000, "1/1000"},
	} {
		slots, ok := transfer(c.ber, c.ptype, fileSize)
		if !ok {
			fmt.Fprintf(w, "%-8v %-10s %12s %12s\n", c.ptype, c.label, "stalled", "-")
			continue
		}
		kbps := float64(fileSize) * 8 / 1000 / (float64(slots) * 625e-6)
		fmt.Fprintf(w, "%-8v %-10s %12d %12.1f\n", c.ptype, c.label, slots, kbps)
	}
	fmt.Fprintln(w, "\nDH5 wins on a clean channel; under noise its 2871-bit packets die")
	fmt.Fprintln(w, "and the FEC-protected DM types take over — the packet-choice")
	fmt.Fprintln(w, "trade-off the paper's introduction motivates.")
	return nil
}
