// Package baseband implements the Bluetooth link controller the paper
// models in SystemC: the device state machine (STANDBY, INQUIRY, INQUIRY
// SCAN/RESPONSE, PAGE, PAGE SCAN, MASTER/SLAVE RESPONSE, CONNECTION),
// the inquiry and page procedures with their frequency trains and random
// backoff, the polling scheme of the connection state with ARQ, and the
// low-power modes (sniff, hold, park) whose RF-activity trade-offs the
// paper's Figs 10-12 quantify.
package baseband

import (
	"fmt"

	"repro/internal/hop"
)

// BDAddr is a 48-bit Bluetooth device address split per the standard.
type BDAddr struct {
	LAP uint32 // lower address part, 24 bits: access codes, hop kernel
	UAP uint8  // upper address part: HEC/CRC seed, hop kernel
	NAP uint16 // non-significant address part
}

// Addr28 returns the hop-kernel address input for this device.
func (a BDAddr) Addr28() uint32 { return hop.Addr28(a.LAP, a.UAP) }

// String renders the address in the usual colon form.
func (a BDAddr) String() string {
	return fmt.Sprintf("%04X:%02X:%06X", a.NAP, a.UAP, a.LAP&0xFFFFFF)
}

// State is the main state-diagram position of a device (paper Fig. 4).
type State int

// Device states.
const (
	StateStandby State = iota
	StateInquiry
	StateInquiryScan
	StateInquiryResponse
	StatePage
	StatePageScan
	StateMasterResponse
	StateSlaveResponse
	StateConnection
	StatePark
)

// String names the state as in the paper's Fig. 4.
func (s State) String() string {
	switch s {
	case StateStandby:
		return "STANDBY"
	case StateInquiry:
		return "INQUIRY"
	case StateInquiryScan:
		return "INQUIRY SCAN"
	case StateInquiryResponse:
		return "INQUIRY RESPONSE"
	case StatePage:
		return "PAGE"
	case StatePageScan:
		return "PAGE SCAN"
	case StateMasterResponse:
		return "MASTER RESPONSE"
	case StateSlaveResponse:
		return "SLAVE RESPONSE"
	case StateConnection:
		return "CONNECTION"
	case StatePark:
		return "PARK"
	}
	return fmt.Sprintf("STATE(%d)", int(s))
}

// Mode is a slave's power mode within the connection state.
type Mode int

// Connection-state power modes.
const (
	ModeActive Mode = iota
	ModeSniff
	ModeHold
	ModePark
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeActive:
		return "ACTIVE"
	case ModeSniff:
		return "SNIFF"
	case ModeHold:
		return "HOLD"
	case ModePark:
		return "PARK"
	}
	return fmt.Sprintf("MODE(%d)", int(m))
}

// Fixed link-controller timings (Core Spec v1.2 Vol 2 Part B). Unlike
// the Config fields below, no experiment varies them.
const (
	// nPage is N_page, the train repetition count in page state before
	// swapping trains. 128 makes train A span a whole R1 scan interval
	// (128 × 16 slots = 2048), so a correctly estimated scan phase is
	// covered whenever the scan window opens (SR=R1 pairing).
	nPage = 128
	// pageRespTimeoutSlots is pagerespTO: handshake steps must follow
	// within this budget or both sides fall back.
	pageRespTimeoutSlots = 8
	// newConnTimeoutSlots is newconnectionTO: POLL/response must
	// complete the switch to the channel hopping sequence within this
	// budget.
	newConnTimeoutSlots = 32
	// carrierSenseUS is how long an active slave listens at each
	// master-slot start to see whether the master transmits (the "small
	// part of time at the beginning of each time slot" of the paper).
	carrierSenseUS = 12
	// rxLeadUS opens listen windows slightly early (the uncertainty
	// window).
	rxLeadUS = 10
	// sniffListenUS is the per-attempt-slot listen duration at a sniff
	// anchor when no packet arrives (resync uncertainty makes it longer
	// than the active-mode carrier sense).
	sniffListenUS = 150
	// holdResyncUS is the listen window a slave needs to resynchronise
	// with the piconet when returning from hold.
	holdResyncUS = 3000
)

// Config sets a device's identity and the protocol/RF parameters the
// experiments sweep. Zero values are replaced by defaults (see
// Normalize), whose calibration the design ablations in EXPERIMENTS.md
// "Beyond the paper's figures" measure.
type Config struct {
	Addr       BDAddr
	ClockPhase uint32 // CLKN at simulation time zero (power-on phase)
	Seed       uint64 // per-device randomness (backoff draws)

	// CorrelatorThreshold is the sync-word error budget of the receiver.
	CorrelatorThreshold int
	// NInquiry is the number of train repetitions before the inquiry
	// train swaps A<->B. The spec mandates 256; the paper's 1.28 s
	// timeout only works with a smaller value (see the NInquiry ablation
	// in EXPERIMENTS.md "Beyond the paper's figures").
	NInquiry int
	// BackoffMaxSlots bounds the inquiry-response random backoff
	// (uniform over 0..max).
	BackoffMaxSlots int
	// TpollSlots is the master's maximum polling interval per slave.
	TpollSlots int
	// PageScanWindowSlots is how long the page-scan receiver stays open
	// per scan interval (spec Tw_page_scan; the windowing is what makes
	// the page phase noise-fragile in Figs 7-8: a handshake that fails
	// past the window waits a whole interval, which exceeds the paper's
	// 1.28 s timeout).
	PageScanWindowSlots int
	// PageScanIntervalSlots is the page-scan repetition interval
	// (spec T_page_scan, default R1 = 1.28 s).
	PageScanIntervalSlots int

	// SupervisionTimeoutSlots drops a link when nothing is heard from
	// the peer for this long (spec link supervision timeout, default
	// 20 s = 32000 slots). Hold periods extend the budget.
	SupervisionTimeoutSlots int
}

// Normalize fills zero fields with calibrated defaults and returns the
// receiver for chaining.
func (c *Config) Normalize() *Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.CorrelatorThreshold, 7)
	def(&c.NInquiry, 64)
	def(&c.BackoffMaxSlots, 1023)
	def(&c.TpollSlots, 50)
	def(&c.PageScanWindowSlots, 18)
	def(&c.PageScanIntervalSlots, 2048)
	def(&c.SupervisionTimeoutSlots, 32000)
	if c.Seed == 0 {
		c.Seed = uint64(c.Addr.LAP)<<8 | uint64(c.Addr.UAP) | 1
	}
	return c
}
