package sim

import "testing"

// TestTimerRearmAllocFree: the self-rescheduling pattern must not
// allocate per arm — the whole point of the primitive.
func TestTimerRearmAllocFree(t *testing.T) {
	k := NewKernel()
	n := 0
	var tm *Timer
	tm = k.NewTimer(func() {
		n++
		if n < 1000 {
			tm.Schedule(5)
		}
	})
	tm.Schedule(5)
	allocs := testing.AllocsPerRun(1, func() { k.Run() })
	if n != 1000 {
		t.Fatalf("ticks = %d", n)
	}
	if allocs > 0 {
		t.Fatalf("timer re-arm loop allocated %.1f objects per run", allocs)
	}
}

// TestTimerRearmReplacesPending: arming an armed timer must cancel the
// previous arm — exactly one firing per arm cycle.
func TestTimerRearmReplacesPending(t *testing.T) {
	k := NewKernel()
	n := 0
	tm := k.NewTimer(func() { n++ })
	tm.Schedule(10)
	tm.Schedule(20) // replaces the first arm
	k.Run()
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	if k.Now() != 20 {
		t.Fatalf("fired at %v, want 20", k.Now())
	}
}

// TestTimerStop covers Stop on armed, idle and fired timers.
func TestTimerStop(t *testing.T) {
	k := NewKernel()
	n := 0
	tm := k.NewTimer(func() { n++ })
	if tm.Stop() {
		t.Fatal("stopping an idle timer must report false")
	}
	tm.Schedule(5)
	if !tm.Armed() {
		t.Fatal("timer not armed after Schedule")
	}
	if !tm.Stop() {
		t.Fatal("stopping an armed timer must report true")
	}
	k.Run()
	if n != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Schedule(5)
	k.Run()
	if n != 1 || tm.Armed() {
		t.Fatalf("n=%d armed=%v after firing", n, tm.Armed())
	}
	if tm.Stop() {
		t.Fatal("stopping a fired timer must report false")
	}
}

// TestTimerRearmFromOwnCallback: the slot-loop pattern — re-arming from
// inside the callback — must leave Armed() true for the new arm.
func TestTimerRearmFromOwnCallback(t *testing.T) {
	k := NewKernel()
	n := 0
	var tm *Timer
	tm = k.NewTimer(func() {
		n++
		if n == 1 && tm.Armed() {
			t.Fatal("Armed() true while the firing is in progress")
		}
		if n < 3 {
			tm.Schedule(7)
		}
	})
	tm.Schedule(7)
	k.Run()
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}
