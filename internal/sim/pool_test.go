package sim

import (
	"testing"
)

// TestScheduleOverflowPanics pins the overflow guard: a delay that
// wraps k.now + delay past the end of the time axis must panic instead
// of silently scheduling the event in the past.
func TestScheduleOverflowPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(100, func() {})
	k.Run() // leave now > 0 so the wrap is strict
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing Schedule did not panic")
		}
	}()
	k.Schedule(Duration(^uint64(0)), func() {})
}

// TestScheduleNearOverflowStillWorks: the largest non-wrapping delay is
// legal (TimeMax is a valid timestamp, used as the Run sentinel).
func TestScheduleNearOverflowStillWorks(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Schedule(Duration(^uint64(0)), func() { ran = true }) // now = 0: lands on TimeMax
	if k.Run() != TimeMax || !ran {
		t.Fatal("event at TimeMax did not run")
	}
}

// TestCancelOfFiredIDWithRecycledSlot: once an event fires, its pool
// slot may be reused by a new event. Cancelling the stale ID must
// report false and must not touch the slot's new occupant.
func TestCancelOfFiredIDWithRecycledSlot(t *testing.T) {
	k := NewKernel()
	fired := 0
	id1 := k.Schedule(1, func() { fired++ })
	k.Run()
	// id1's slot is free; this Schedule recycles it.
	id2 := k.Schedule(1, func() { fired++ })
	if slot1, _ := decodeID(id1); func() bool { s2, _ := decodeID(id2); return s2 != slot1 }() {
		t.Fatalf("test premise broken: slot not recycled (id1=%x id2=%x)", id1, id2)
	}
	if k.Cancel(id1) {
		t.Fatal("cancelling a fired ID must report false")
	}
	if k.Pending() != 1 {
		t.Fatalf("stale Cancel disturbed the recycled slot: pending=%d", k.Pending())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if k.Cancel(id2) {
		t.Fatal("cancelling id2 after it fired must report false")
	}
}

// TestCancelScheduleChurnAcrossCompactBoundary hammers the pool with
// interleaved Schedule/Cancel waves that repeatedly cross the
// minCompactLen threshold in both directions, then checks that the
// survivors fire exactly once, in (at, seq) order.
func TestCancelScheduleChurnAcrossCompactBoundary(t *testing.T) {
	k := NewKernel()
	r := NewRand(42)
	type ev struct {
		at    Time
		order int
	}
	var want []ev
	var got []ev
	ids := make(map[EventID]Time)
	order := 0
	for wave := 0; wave < 50; wave++ {
		// Grow: schedule a batch around the compaction threshold.
		n := 8 + r.Intn(minCompactLen*2)
		for i := 0; i < n; i++ {
			at := k.Now() + Time(1+r.Intn(1000))
			o := order
			order++
			id := k.At(at, func() { got = append(got, ev{k.Now(), o}) })
			ids[id] = at
		}
		// Shrink: cancel a random majority so compaction triggers.
		for id := range ids {
			if r.Intn(3) > 0 {
				if !k.Cancel(id) {
					t.Fatal("live event failed to cancel")
				}
				delete(ids, id)
			}
		}
		// Fire a few steps so the pool recycles mid-churn.
		for i := 0; i < 4 && k.Step(); i++ {
		}
		for id, at := range ids {
			if at <= k.Now() {
				delete(ids, id) // fired by Step
			}
		}
	}
	for _, at := range ids {
		want = append(want, ev{at, 0})
	}
	remaining := k.Pending()
	if remaining != len(ids) {
		t.Fatalf("Pending = %d, want %d survivors", remaining, len(ids))
	}
	got = got[:0]
	k.Run()
	if len(got) != remaining {
		t.Fatalf("ran %d events, want %d", len(got), remaining)
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("events fired out of time order: %v after %v", got[i].at, got[i-1].at)
		}
	}
	_ = want
}

// TestPooledOrderMatchesReference pins the same-tick total order of the
// pooled queue against a straightforward reference model: events
// scheduled under heavy cancel churn must fire exactly in (at, then
// schedule-order) sequence — the determinism contract pooling must not
// bend.
func TestPooledOrderMatchesReference(t *testing.T) {
	k := NewKernel()
	r := NewRand(7)
	type ref struct {
		at  Time
		seq int
	}
	var model []ref
	var fired []int
	seq := 0
	for i := 0; i < 500; i++ {
		at := Time(r.Intn(40)) // few distinct ticks: plenty of same-tick ties
		s := seq
		seq++
		id := k.At(at, func() { fired = append(fired, s) })
		if r.Intn(4) == 0 {
			k.Cancel(id)
		} else {
			model = append(model, ref{at, s})
		}
	}
	// Reference order: stable sort by time, ties by schedule order.
	for i := 1; i < len(model); i++ {
		for j := i; j > 0 && (model[j].at < model[j-1].at ||
			(model[j].at == model[j-1].at && model[j].seq < model[j-1].seq)); j-- {
			model[j], model[j-1] = model[j-1], model[j]
		}
	}
	k.Run()
	if len(fired) != len(model) {
		t.Fatalf("fired %d events, want %d", len(fired), len(model))
	}
	for i := range model {
		if fired[i] != model[i].seq {
			t.Fatalf("order diverged at %d: fired seq %d, want %d", i, fired[i], model[i].seq)
		}
	}
}

// TestStepAndRunUntilShareCancelledBookkeeping drives the same
// cancel-heavy schedule through Step and RunUntil interleaved; the
// shared nextLive/take path must keep the tombstone counter exact so
// heap compaction never fires on a wrong census. Far-future due times
// force every event through the overflow heap, the lazy-cancel side.
func TestStepAndRunUntilShareCancelledBookkeeping(t *testing.T) {
	k := NewKernel()
	fired := 0
	var ids []EventID
	base := Slots(1000000)
	for i := 0; i < 4*minCompactLen; i++ {
		ids = append(ids, k.Schedule(base+Duration(1+i), func() { fired++ }))
	}
	// Cancel every other event: half the heap is tombstones.
	for i := 0; i < len(ids); i += 2 {
		k.Cancel(ids[i])
	}
	// Alternate single steps with bounded runs.
	for i := 0; k.Pending() > 0; i++ {
		if i%2 == 0 {
			k.Step()
		} else {
			k.RunUntil(k.Now() + 3)
		}
	}
	if fired != len(ids)/2 {
		t.Fatalf("fired = %d, want %d", fired, len(ids)/2)
	}
	q := &k.q
	if q.heapCancelled != 0 || len(q.heap) != 0 || q.calCount != 0 {
		t.Fatalf("bookkeeping drifted: cancelled=%d heap=%d cal=%d",
			q.heapCancelled, len(q.heap), q.calCount)
	}
}

// TestSteadyStateSchedulingDoesNotGrowPool: a self-rescheduling timer
// loop (the baseband slot-callback pattern) must reuse one pool slot
// forever rather than growing the event pool.
func TestSteadyStateSchedulingDoesNotGrowPool(t *testing.T) {
	k := NewKernel()
	n := 0
	var tick Event
	tick = func() {
		n++
		if n < 10000 {
			k.Schedule(10, tick)
		}
	}
	k.Schedule(10, tick)
	k.Run()
	if n != 10000 {
		t.Fatalf("ticks = %d", n)
	}
	if len(k.q.nodes) > 4 {
		t.Fatalf("steady-state loop grew the pool to %d nodes", len(k.q.nodes))
	}
}
