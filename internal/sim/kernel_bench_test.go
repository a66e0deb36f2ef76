package sim

import (
	"testing"
)

// Scheduler microbenchmarks: the three load shapes the baseband layer
// puts on the kernel, isolated from the rest of the model so queue
// changes are measurable apart from full-figure sweeps. See
// bench/README.md for how to read them.

// BenchmarkKernelSlotGrid is the steady-state hot path: a handful of
// self-rescheduling slot callbacks (TX loops, listen windows) marching
// down the 625 µs grid. Every schedule lands in the calendar window and
// every pop comes off the cursor bucket.
func BenchmarkKernelSlotGrid(b *testing.B) {
	k := NewKernel()
	const loops = 16
	for i := 0; i < loops; i++ {
		var fn Event
		fn = func() { k.Schedule(Slots(1), fn) }
		k.Schedule(Slots(1)+Duration(i*(SlotTicks/loops)), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkKernelSameTickStack is the office shape: 16 phase-aligned
// piconet loops fire on one tick of every slot and each arms four
// events in the next slot, on ticks the other loops share (slot start,
// RX lead, half slot, half slot plus lead). Each slot's chain holds
// four runs of 16 events, and every loop after the first inserts
// mid-chain, at the end of its tick's run.
func BenchmarkKernelSameTickStack(b *testing.B) {
	k := NewKernel()
	nop := func() {}
	const loops = 16
	for i := 0; i < loops; i++ {
		var fn Event
		fn = func() {
			k.Schedule(Slots(1), fn)
			k.Schedule(Slots(1)+20, nop)
			k.Schedule(Slots(1)+HalfSlotTicks, nop)
			k.Schedule(Slots(1)+HalfSlotTicks+20, nop)
		}
		k.Schedule(Slots(1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkKernelCancelChurn is the re-armed timer pattern (Tpoll
// deadlines, response windows): every packet stops a pending timer and
// schedules a fresh one nearby. In-window cancels unlink eagerly, so the
// structures must stay at one live node throughout.
func BenchmarkKernelCancelChurn(b *testing.B) {
	k := NewKernel()
	nop := func() {}
	id := k.Schedule(Slots(50), nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Cancel(id)
		id = k.Schedule(Slots(uint64(50+i%50)), nop)
	}
}

// BenchmarkKernelFarFutureMix interleaves slot-grid traffic with
// supervision-style far-future timeouts that are re-armed long before
// they fire — the load that exercises the overflow heap, its lazy
// cancellation, and window migration at once.
func BenchmarkKernelFarFutureMix(b *testing.B) {
	k := NewKernel()
	nop := func() {}
	superv := k.Schedule(Slots(32000), nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(Slots(uint64(1+i%8))+Duration(i%3), nop)
		if i%4 == 0 {
			k.Cancel(superv)
			superv = k.Schedule(Slots(32000), nop)
		}
		k.Step()
	}
}
