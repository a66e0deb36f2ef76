// Package hci provides the Host Controller Interface of the paper's
// Fig. 1: the command/event boundary between a host application and the
// Bluetooth module (link manager + baseband). It is deliberately thin —
// commands map onto baseband/LMP procedures and completions surface as
// events — but it gives the examples and experiments the same API shape
// a real host stack would use.
package hci

import (
	"fmt"

	"repro/internal/baseband"
	"repro/internal/lmp"
	"repro/internal/packet"
)

// ConnHandle identifies an open ACL connection at the HCI boundary.
type ConnHandle uint16

// Event is a controller-to-host notification.
type Event interface{ eventName() string }

// InquiryResultEvent reports one discovered device.
type InquiryResultEvent struct {
	Result baseband.InquiryResult
}

// InquiryCompleteEvent ends an inquiry.
type InquiryCompleteEvent struct {
	Found int
	OK    bool
}

// ConnectionCompleteEvent reports the outcome of CreateConnection or an
// incoming connection (on the slave).
type ConnectionCompleteEvent struct {
	Handle ConnHandle
	Peer   baseband.BDAddr
	OK     bool
}

// DisconnectionCompleteEvent reports a closed link.
type DisconnectionCompleteEvent struct {
	Handle ConnHandle
}

// ModeChangeEvent reports a power-mode transition.
type ModeChangeEvent struct {
	Handle ConnHandle
	Mode   baseband.Mode
}

// DataEvent delivers received ACL data to the host. Payload is the
// host's own copy: it stays valid after the event.
type DataEvent struct {
	Handle  ConnHandle
	Payload []byte
}

func (InquiryResultEvent) eventName() string         { return "inquiry_result" }
func (InquiryCompleteEvent) eventName() string       { return "inquiry_complete" }
func (ConnectionCompleteEvent) eventName() string    { return "connection_complete" }
func (DisconnectionCompleteEvent) eventName() string { return "disconnection_complete" }
func (ModeChangeEvent) eventName() string            { return "mode_change" }
func (DataEvent) eventName() string                  { return "data" }

// Controller is the HCI front of one device.
type Controller struct {
	dev *baseband.Device
	lm  *lmp.Manager

	// Events receives every controller event; set before issuing
	// commands. A nil handler drops events.
	Events func(Event)

	handles    map[ConnHandle]*baseband.Link
	byLink     map[*baseband.Link]ConnHandle
	nextHandle ConnHandle
	lastInq    map[baseband.BDAddr]baseband.InquiryResult
}

// Attach builds a Controller over a baseband device, wiring the LMP
// manager and data path.
func Attach(dev *baseband.Device) *Controller {
	c := &Controller{
		dev:        dev,
		lm:         lmp.Attach(dev),
		handles:    make(map[ConnHandle]*baseband.Link),
		byLink:     make(map[*baseband.Link]ConnHandle),
		nextHandle: 1,
		lastInq:    make(map[baseband.BDAddr]baseband.InquiryResult),
	}
	dev.OnConnected = c.onConnected
	dev.OnData = c.onData
	c.lm.OnModeChange = c.onModeChange
	c.lm.OnDetach = c.onDetach
	return c
}

// Dev exposes the underlying device (for meters and signals).
func (c *Controller) Dev() *baseband.Device { return c.dev }

// Link resolves a handle (nil if unknown).
func (c *Controller) Link(h ConnHandle) *baseband.Link { return c.handles[h] }

func (c *Controller) emit(e Event) {
	if c.Events != nil {
		c.Events(e)
	}
}

func (c *Controller) onConnected(l *baseband.Link) {
	h := c.nextHandle
	c.nextHandle++
	c.handles[h] = l
	c.byLink[l] = h
	c.emit(ConnectionCompleteEvent{Handle: h, Peer: l.Peer, OK: true})
}

func (c *Controller) onData(l *baseband.Link, payload []byte, llid uint8) {
	if h, ok := c.byLink[l]; ok {
		c.emit(DataEvent{Handle: h, Payload: append([]byte(nil), payload...)})
	}
}

func (c *Controller) onModeChange(l *baseband.Link, m baseband.Mode) {
	if h, ok := c.byLink[l]; ok {
		c.emit(ModeChangeEvent{Handle: h, Mode: m})
	}
}

func (c *Controller) onDetach(l *baseband.Link) {
	if h, ok := c.byLink[l]; ok {
		delete(c.handles, h)
		delete(c.byLink, l)
		c.emit(DisconnectionCompleteEvent{Handle: h})
	}
}

// Inquiry runs device discovery for at most timeoutSlots, reporting up
// to maxResponses devices.
func (c *Controller) Inquiry(timeoutSlots, maxResponses int) {
	c.dev.StartInquiry(timeoutSlots, maxResponses, func(rs []baseband.InquiryResult, ok bool) {
		for _, r := range rs {
			c.lastInq[r.Addr] = r
			c.emit(InquiryResultEvent{Result: r})
		}
		c.emit(InquiryCompleteEvent{Found: len(rs), OK: ok})
	})
}

// WriteScanEnable turns inquiry scan and/or page scan on (a real HCI
// multiplexes both; this model runs one scan type at a time, favouring
// page scan, which is what connection establishment needs).
func (c *Controller) WriteScanEnable(inquiryScan, pageScan bool) {
	switch {
	case pageScan:
		c.dev.StartPageScan()
	case inquiryScan:
		c.dev.StartInquiryScan()
	default:
		c.dev.StopScan()
	}
}

// CreateConnection pages a previously discovered device and, on
// baseband connection, runs LMP setup. The ConnectionCompleteEvent
// carries the assigned handle.
func (c *Controller) CreateConnection(addr baseband.BDAddr, timeoutSlots int) error {
	r, ok := c.lastInq[addr]
	if !ok {
		return fmt.Errorf("hci: %v not in inquiry cache; run Inquiry first", addr)
	}
	est := c.dev.EstimateOf(r, 0)
	c.dev.StartPage(addr, est, timeoutSlots, func(l *baseband.Link, ok bool) {
		if !ok {
			c.emit(ConnectionCompleteEvent{Peer: addr, OK: false})
			return
		}
		c.lm.StartSetup(l)
	})
	return nil
}

// SendData queues ACL data on a connection.
func (c *Controller) SendData(h ConnHandle, data []byte) error {
	l, ok := c.handles[h]
	if !ok {
		return fmt.Errorf("hci: unknown handle %d", h)
	}
	l.Send(data, packet.LLIDL2CAPStart)
	return nil
}

// SniffMode requests sniff mode on a connection (master side).
func (c *Controller) SniffMode(h ConnHandle, tsniff, attempt, offset int) error {
	l, ok := c.handles[h]
	if !ok {
		return fmt.Errorf("hci: unknown handle %d", h)
	}
	c.lm.RequestSniff(l, tsniff, attempt, offset, func(accepted bool) {
		if accepted {
			c.emit(ModeChangeEvent{Handle: h, Mode: baseband.ModeSniff})
		}
	})
	return nil
}

// ExitSniffMode returns a connection to active mode.
func (c *Controller) ExitSniffMode(h ConnHandle) error {
	l, ok := c.handles[h]
	if !ok {
		return fmt.Errorf("hci: unknown handle %d", h)
	}
	c.lm.RequestUnsniff(l, func(accepted bool) {
		if accepted {
			c.emit(ModeChangeEvent{Handle: h, Mode: baseband.ModeActive})
		}
	})
	return nil
}

// HoldMode requests a hold period on a connection.
func (c *Controller) HoldMode(h ConnHandle, holdSlots int) error {
	l, ok := c.handles[h]
	if !ok {
		return fmt.Errorf("hci: unknown handle %d", h)
	}
	c.lm.RequestHold(l, holdSlots, func(accepted bool) {
		if accepted {
			c.emit(ModeChangeEvent{Handle: h, Mode: baseband.ModeHold})
		}
	})
	return nil
}

// ParkMode parks a connection.
func (c *Controller) ParkMode(h ConnHandle, beaconSlots int) error {
	l, ok := c.handles[h]
	if !ok {
		return fmt.Errorf("hci: unknown handle %d", h)
	}
	c.lm.RequestPark(l, beaconSlots, func(accepted bool) {
		if accepted {
			c.emit(ModeChangeEvent{Handle: h, Mode: baseband.ModePark})
		}
	})
	return nil
}

// Disconnect detaches a connection.
func (c *Controller) Disconnect(h ConnHandle) error {
	l, ok := c.handles[h]
	if !ok {
		return fmt.Errorf("hci: unknown handle %d", h)
	}
	c.lm.Detach(l)
	delete(c.handles, h)
	delete(c.byLink, l)
	c.emit(DisconnectionCompleteEvent{Handle: h})
	return nil
}
