package hci

import (
	"testing"

	"repro/internal/baseband"
	"repro/internal/channel"
	"repro/internal/sim"
)

type world struct {
	k  *sim.Kernel
	ch *channel.Channel
}

func newWorld() *world {
	k := sim.NewKernel()
	return &world{k: k, ch: channel.New(k, sim.NewRand(7), channel.Config{})}
}

func (w *world) controller(name string, lap uint32, phase uint32) *Controller {
	dev := baseband.New(w.k, w.ch, name, baseband.Config{
		Addr:       baseband.BDAddr{LAP: lap, UAP: uint8(lap >> 8), NAP: 0xBEEF},
		ClockPhase: phase,
	})
	return Attach(dev)
}

func TestInquiryThroughHCI(t *testing.T) {
	w := newWorld()
	a := w.controller("a", 0x100001, 0)
	b := w.controller("b", 0x200002, 5555)
	var results []InquiryResultEvent
	var complete *InquiryCompleteEvent
	a.Events = func(e Event) {
		switch ev := e.(type) {
		case InquiryResultEvent:
			results = append(results, ev)
		case InquiryCompleteEvent:
			complete = &ev
		}
	}
	b.WriteScanEnable(true, false)
	a.Inquiry(4096, 1)
	w.k.RunUntil(sim.Time(sim.Slots(5000)))
	if complete == nil || !complete.OK || len(results) != 1 {
		t.Fatalf("inquiry failed: complete=%+v results=%d", complete, len(results))
	}
	if results[0].Result.Addr != b.Dev().Addr() {
		t.Fatal("wrong device discovered")
	}
}

func TestFullConnectionLifecycle(t *testing.T) {
	w := newWorld()
	a := w.controller("a", 0x111101, 0)
	b := w.controller("b", 0x222202, 9999)

	var aConn, bConn *ConnectionCompleteEvent
	var aData []byte
	var bMode *ModeChangeEvent
	var bDisc bool
	a.Events = func(e Event) {
		if ev, ok := e.(ConnectionCompleteEvent); ok {
			aConn = &ev
		}
		if ev, ok := e.(DataEvent); ok {
			aData = append(aData, ev.Payload...)
		}
	}
	b.Events = func(e Event) {
		switch ev := e.(type) {
		case ConnectionCompleteEvent:
			bConn = &ev
		case ModeChangeEvent:
			bMode = &ev
		case DisconnectionCompleteEvent:
			bDisc = true
		}
	}

	// Discover, then connect.
	b.WriteScanEnable(true, false)
	a.Inquiry(4096, 1)
	w.k.RunUntil(sim.Time(sim.Slots(5000)))
	b.WriteScanEnable(false, true)
	if err := a.CreateConnection(b.Dev().Addr(), 2048); err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(w.k.Now() + sim.Time(sim.Slots(1000)))
	if aConn == nil || !aConn.OK || bConn == nil || !bConn.OK {
		t.Fatalf("connection incomplete: a=%+v b=%+v", aConn, bConn)
	}

	// Data from slave to master through handles.
	if err := b.SendData(bConn.Handle, []byte("sensor reading 42")); err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(w.k.Now() + sim.Time(sim.Slots(400)))
	if string(aData) != "sensor reading 42" {
		t.Fatalf("master data = %q", aData)
	}

	// Sniff via HCI command.
	if err := a.SniffMode(aConn.Handle, 100, 2, 0); err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(w.k.Now() + sim.Time(sim.Slots(800)))
	if bMode == nil || bMode.Mode != baseband.ModeSniff {
		t.Fatalf("slave mode change = %+v", bMode)
	}
	if a.Link(aConn.Handle).Mode() != baseband.ModeSniff {
		t.Fatal("master link not in sniff")
	}

	// Disconnect propagates.
	if err := a.Disconnect(aConn.Handle); err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(w.k.Now() + sim.Time(sim.Slots(600)))
	if !bDisc {
		t.Fatal("slave never saw the disconnect")
	}
	if a.Link(aConn.Handle) != nil {
		t.Fatal("handle must be released")
	}
}

// TestDataEventPayloadOutlivesNextPacket: the baseband lends each
// payload only for the duration of OnData, but a DataEvent goes to a
// host that may keep it. A host holding every event's Payload must
// still read each packet's own bytes after later packets have reused
// the device's receive buffer.
func TestDataEventPayloadOutlivesNextPacket(t *testing.T) {
	w := newWorld()
	a := w.controller("a", 0x511105, 0)
	b := w.controller("b", 0x622206, 7777)
	var aConn, bConn *ConnectionCompleteEvent
	var kept [][]byte
	a.Events = func(e Event) {
		switch ev := e.(type) {
		case ConnectionCompleteEvent:
			aConn = &ev
		case DataEvent:
			kept = append(kept, ev.Payload)
		}
	}
	b.Events = func(e Event) {
		if ev, ok := e.(ConnectionCompleteEvent); ok {
			bConn = &ev
		}
	}
	b.WriteScanEnable(true, false)
	a.Inquiry(4096, 1)
	w.k.RunUntil(sim.Time(sim.Slots(5000)))
	b.WriteScanEnable(false, true)
	if err := a.CreateConnection(b.Dev().Addr(), 2048); err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(w.k.Now() + sim.Time(sim.Slots(1000)))
	if aConn == nil || bConn == nil {
		t.Fatal("connection incomplete")
	}
	want := []string{"first packet", "second packet", "third one"}
	for _, m := range want {
		if err := b.SendData(bConn.Handle, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	w.k.RunUntil(w.k.Now() + sim.Time(sim.Slots(400)))
	if len(kept) != len(want) {
		t.Fatalf("%d data events, want %d", len(kept), len(want))
	}
	for i, m := range want {
		if string(kept[i]) != m {
			t.Errorf("data event %d reads %q after later packets, want %q", i, kept[i], m)
		}
	}
}

func TestCreateConnectionRequiresInquiry(t *testing.T) {
	w := newWorld()
	a := w.controller("a", 0x300003, 0)
	if err := a.CreateConnection(baseband.BDAddr{LAP: 0x9}, 100); err == nil {
		t.Fatal("paging an unknown device must error")
	}
}

func TestUnknownHandleErrors(t *testing.T) {
	w := newWorld()
	a := w.controller("a", 0x400004, 0)
	if a.SendData(42, []byte{1}) == nil ||
		a.SniffMode(42, 10, 1, 0) == nil ||
		a.ExitSniffMode(42) == nil ||
		a.HoldMode(42, 10) == nil ||
		a.ParkMode(42, 10) == nil ||
		a.Disconnect(42) == nil {
		t.Fatal("unknown handles must error")
	}
}

func TestEventNames(t *testing.T) {
	events := []Event{
		InquiryResultEvent{}, InquiryCompleteEvent{}, ConnectionCompleteEvent{},
		DisconnectionCompleteEvent{}, ModeChangeEvent{}, DataEvent{},
	}
	seen := map[string]bool{}
	for _, e := range events {
		n := e.eventName()
		if n == "" || seen[n] {
			t.Fatalf("event name %q duplicated or empty", n)
		}
		seen[n] = true
	}
}
