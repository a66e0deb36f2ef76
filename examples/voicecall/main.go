// voicecall sets up a headset-style SCO voice link: the piconet forms,
// the Link Manager negotiates an HV3 channel over the air, and both ends
// stream audio frames in reserved slots while an ACL data link keeps
// running underneath. Under channel noise the HV1/HV2/HV3 choice decides
// how the audio degrades.
//
// testdata/stdout.golden pins everything it prints; after an intended
// change, regenerate it with
//
//	go test ./examples/voicecall -update
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/lmp"
	"repro/internal/packet"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	sim := core.NewSimulation(core.Options{Seed: 9, BER: 1.0 / 400})
	phone := sim.AddDevice("phone", baseband.Config{Addr: baseband.BDAddr{LAP: 0x12AB34, UAP: 1}})
	headset := sim.AddDevice("headset", baseband.Config{Addr: baseband.BDAddr{LAP: 0x56CD78, UAP: 2}})
	phoneLM := lmp.Attach(phone)
	headsetLM := lmp.Attach(headset)

	links := sim.BuildPiconet(phone, headset)
	acl := links[0]
	fmt.Fprintln(w, "piconet up: phone (master) + headset (slave)")

	// The headset learns about the voice channel through LMP and wires
	// its microphone and speaker.
	micSample := byte(0)
	headsetLM.OnSCOEstablished = func(sco *baseband.SCOLink) {
		fmt.Fprintf(w, "[headset] SCO established: %v every %d slots\n", sco.Type, sco.TscoSlots)
		sco.Source = func() []byte {
			micSample++
			frame := make([]byte, sco.Type.MaxPayload())
			for i := range frame {
				frame[i] = micSample
			}
			return frame
		}
	}

	// The phone requests the channel and counts received audio. The
	// callback cannot stop the simulation, so a refusal is kept for run
	// to return once the call has run its course.
	frames, garbled := 0, 0
	var refused error
	phoneLM.RequestSCO(acl, packet.TypeHV3, 6, 0, func(sco *baseband.SCOLink) {
		if sco == nil {
			refused = errors.New("SCO refused")
			return
		}
		fmt.Fprintf(w, "[phone  ] SCO accepted: %v every %d slots\n", sco.Type, sco.TscoSlots)
		sco.Sink = func(frame []byte) {
			frames++
			for _, b := range frame[1:] {
				if b != frame[0] {
					garbled++
					return
				}
			}
		}
	})

	// 2.5 simulated seconds of call, with a little data on the side.
	acl.Send([]byte("battery level: 80%"), packet.LLIDL2CAPStart)
	sim.RunSlots(4000)
	if refused != nil {
		return refused
	}

	fmt.Fprintf(w, "call stats: %d audio frames received, %d garbled (BER %.4f, HV3 unprotected)\n",
		frames, garbled, 1.0/400)
	tx, rx := core.Activity(headset)
	fmt.Fprintf(w, "headset RF activity: tx %.2f%% rx %.2f%% — voice dominates the radio budget\n",
		tx*100, rx*100)
	return nil
}
