package sim

import "testing"

func TestRandStateRoundTrip(t *testing.T) {
	a := NewRand(42)
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	st := a.State()
	b := NewRand(1)
	b.SetState(st)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: resumed stream diverged: %x vs %x", i, x, y)
		}
	}
}

func TestForkState(t *testing.T) {
	if got := ForkState(12345, 0); got != 12345 {
		t.Fatalf("seed 0 must be a passthrough, got %x", got)
	}
	if ForkState(12345, 7) == 12345 {
		t.Fatal("nonzero seed must perturb the state")
	}
	if ForkState(12345, 7) != ForkState(12345, 7) {
		t.Fatal("fork must be deterministic")
	}
	if ForkState(12345, 7) == ForkState(12345, 8) {
		t.Fatal("different seeds must fork differently")
	}
	// A (state, seed) pair that collides to zero must not stick the
	// generator.
	seed := uint64(3)
	state := seed * 0x9E3779B97F4A7C15
	if ForkState(state, seed) == 0 {
		t.Fatal("fork must never produce the stuck zero state")
	}
}

func TestEventInfo(t *testing.T) {
	k := NewKernel()
	k.Schedule(Slots(1), func() {})
	id := k.Schedule(Slots(3), func() {})
	at, seq, ok := k.EventInfo(id)
	if !ok || at != Time(Slots(3)) || seq != 2 {
		t.Fatalf("EventInfo = (%v, %d, %v), want (%v, 2, true)", at, seq, ok, Time(Slots(3)))
	}
	k.Cancel(id)
	if _, _, ok := k.EventInfo(id); ok {
		t.Fatal("EventInfo must reject a cancelled ID")
	}
	id2 := k.Schedule(0, func() {})
	k.RunUntil(Time(Slots(1)))
	if _, _, ok := k.EventInfo(id2); ok {
		t.Fatal("EventInfo must reject a fired ID")
	}
	if _, _, ok := k.EventInfo(0); ok {
		t.Fatal("EventInfo must reject the zero ID")
	}
	// A far-future event sits in the overflow heap; EventInfo must see
	// it there as well as in the calendar.
	far := k.Schedule(Slots(defaultBuckets*100), func() {})
	if at, _, ok := k.EventInfo(far); !ok || at != k.Now()+Time(Slots(defaultBuckets*100)) {
		t.Fatalf("EventInfo(heap event) = (%v, %v)", at, ok)
	}
}

func TestTimerPendingAndAtFn(t *testing.T) {
	k := NewKernel()
	tm := k.NewTimer(nil)
	if _, _, ok := tm.Pending(); ok {
		t.Fatal("idle timer must not report pending")
	}
	fired := false
	tm.AtFn(Time(Slots(5)), func() { fired = true })
	at, seq, ok := tm.Pending()
	if !ok || at != Time(Slots(5)) || seq == 0 {
		t.Fatalf("Pending = (%v, %d, %v)", at, seq, ok)
	}
	k.RunUntil(Time(Slots(6)))
	if !fired {
		t.Fatal("AtFn arm did not fire")
	}
	if _, _, ok := tm.Pending(); ok {
		t.Fatal("fired timer must not report pending")
	}
}

// TestRearmSetPreservesOrder pins the re-arm ordering theorem: a set of
// same-instant and distinct-instant events captured from one kernel and
// re-armed (in arbitrary Add order) on a fresh kernel must fire in the
// original global order, interleaved correctly with events scheduled
// after the restore.
func TestRearmSetPreservesOrder(t *testing.T) {
	k1 := NewKernel()
	type cap struct {
		at    Time
		seq   uint64
		label int
	}
	var caps []cap
	// Schedule 8 events, several sharing timestamps, some as timers.
	delays := []Duration{Slots(2), Slots(1), Slots(2), Slots(1), Slots(3), Slots(2), Slots(1), Slots(3)}
	for i, d := range delays {
		var at Time
		var seq uint64
		var ok bool
		if i%2 == 0 {
			at, seq, ok = k1.EventInfo(k1.Schedule(d, func() {}))
		} else {
			tm := k1.NewTimer(func() {})
			tm.Schedule(d)
			at, seq, ok = tm.Pending()
		}
		if !ok {
			t.Fatalf("event %d not pending", i)
		}
		caps = append(caps, cap{at, seq, i})
	}

	// The reference order: ascending (at, seq) = ascending (at, schedule
	// order).
	var want []int
	for _, d := range []Duration{Slots(1), Slots(2), Slots(3)} {
		for i, dd := range delays {
			if dd == d {
				want = append(want, i)
			}
		}
	}

	k2 := NewKernel()
	var got []int
	var set RearmSet
	// Add in a scrambled order; Execute must sort it out. Odd labels
	// re-arm through a timer, even ones through Kernel.At.
	for _, idx := range []int{5, 0, 7, 2, 4, 1, 6, 3} {
		c := caps[idx]
		label, at := c.label, c.at
		fn := func() { got = append(got, label) }
		set.Add(c.at, c.seq, func() {
			if label%2 == 0 {
				k2.At(at, fn)
			} else {
				k2.NewTimer(nil).AtFn(at, fn)
			}
		})
	}
	set.Execute()
	if set.Len() != 0 {
		t.Fatalf("Execute must drain the set, %d left", set.Len())
	}
	// A post-restore event at an already-captured instant must fire
	// after every re-armed event at that instant (it was scheduled
	// later in both runs).
	k2.At(Time(Slots(2)), func() { got = append(got, 99) })
	// want = [Slots(1) x3, Slots(2) x3, Slots(3) x2]; 99 lands after
	// the re-armed Slots(2) trio.
	wantFull := append(append([]int{}, want[:6]...), 99)
	wantFull = append(wantFull, want[6:]...)
	k2.Run()
	if len(got) != len(wantFull) {
		t.Fatalf("fired %d events, want %d", len(got), len(wantFull))
	}
	for i := range got {
		if got[i] != wantFull[i] {
			t.Fatalf("fire order %v, want %v", got, wantFull)
		}
	}
}
