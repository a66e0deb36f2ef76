// Package btclock models the 28-bit Bluetooth native clock (CLKN): a
// free-running 3.2 kHz counter every device owns, the piconet clock CLK
// derived from the master's CLKN, and the offset arithmetic slaves use to
// stay synchronised after the page procedure. The paper's synchronisation
// behaviour — who knows whose clock, and when — lives here.
package btclock

import "repro/internal/sim"

// Mask keeps clock values inside the 28-bit counter.
const Mask = (1 << 28) - 1

// Clock is a device's view of a Bluetooth clock: the native counter is
// the simulation time (in half slots) plus the device's power-on phase;
// the piconet clock adds a learned offset toward the master's native
// clock.
type Clock struct {
	phase  uint32 // native phase: CLKN at simulation time zero
	offset uint32 // CLK = CLKN + offset (mod 2^28); zero for a master
}

// New returns a clock with the given power-on phase, in half slots.
// Real devices boot at arbitrary times, so experiments draw phases at
// random; phase 0 aligns CLKN with the simulation clock.
func New(phase uint32) *Clock {
	return &Clock{phase: phase & Mask}
}

// ticksPerCLKN is the kernel ticks per CLKN increment (312.5 µs).
const ticksPerCLKN = sim.HalfSlotTicks

// CLKN returns the 28-bit native clock at simulation time t.
func (c *Clock) CLKN(t sim.Time) uint32 {
	return (uint32(uint64(t)/ticksPerCLKN) + c.phase) & Mask
}

// CLK returns the piconet clock at time t (native clock plus offset).
func (c *Clock) CLK(t sim.Time) uint32 {
	return (c.CLKN(t) + c.offset) & Mask
}

// Offset returns the current CLKN→CLK offset.
func (c *Clock) Offset() uint32 { return c.offset }

// SetOffset installs a new offset, as the slave does when the FHS packet
// delivers the master's clock during page response.
func (c *Clock) SetOffset(off uint32) { c.offset = off & Mask }

// SyncTo computes and installs the offset that makes CLK equal the
// master clock value observed at time t (from a received FHS).
func (c *Clock) SyncTo(masterCLK uint32, t sim.Time) {
	c.offset = (masterCLK - c.CLKN(t)) & Mask
}

// DropSync clears the offset (detach / reset).
func (c *Clock) DropSync() { c.offset = 0 }

// NextTickTime returns the earliest simulation time >= t at which the
// native clock satisfies CLKN mod modulus == residue. It panics if
// modulus is not a power of two (the protocol only uses 2, 4, and slot
// multiples).
func (c *Clock) NextTickTime(t sim.Time, modulus, residue uint32) sim.Time {
	if modulus == 0 || modulus&(modulus-1) != 0 {
		panic("btclock: modulus must be a power of two")
	}
	// Round t up to the next CLKN boundary, then step whole CLKN ticks.
	base := (uint64(t) + ticksPerCLKN - 1) / ticksPerCLKN * ticksPerCLKN
	curAtBase := (uint32(base/ticksPerCLKN) + c.phase) & Mask
	delta := (residue - curAtBase) & (modulus - 1)
	return sim.Time(base + uint64(delta)*ticksPerCLKN)
}

// SlotStart reports whether the native clock is at the start of a slot
// (CLKN even) at time t, assuming t lies on a CLKN boundary.
func (c *Clock) SlotStart(t sim.Time) bool { return c.CLKN(t)&1 == 0 }

// EstimatedClock is another device's clock as learned from an FHS packet:
// the estimate may later drift or be offset for testing estimate errors.
type EstimatedClock struct {
	base  *Clock
	delta uint32 // estimate = owner's CLKN + delta
}

// Estimate captures target's clock as seen through owner's native clock
// at time t, with an optional error in half slots (positive = estimate
// runs fast).
func Estimate(owner *Clock, targetCLKN uint32, t sim.Time, errHalfSlots int32) *EstimatedClock {
	delta := (targetCLKN - owner.CLKN(t) + uint32(errHalfSlots)) & Mask
	return &EstimatedClock{base: owner, delta: delta}
}

// CLKE returns the estimated clock at time t.
func (e *EstimatedClock) CLKE(t sim.Time) uint32 {
	return (e.base.CLKN(t) + e.delta) & Mask
}
