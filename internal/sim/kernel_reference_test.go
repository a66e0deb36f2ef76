package sim

import (
	"testing"
)

// This file pins the calendar-queue scheduler against a naive reference
// model: a sorted list ordered by (at, seq) with eager deletion. The
// reference is obviously correct and obviously slow; the kernel must
// produce the identical fire order and census over randomized scripts of
// schedule / cancel / step / run-until operations, including same-tick
// bursts, far-future (far-list) events, off-grid timestamps, and
// cancels through stale and recycled EventIDs.

type refEntry struct {
	at  Time
	seq uint64
	sid int // script-level event identity
}

// refModel is the sorted-list reference scheduler.
type refModel struct {
	list []refEntry
	now  Time
}

func (m *refModel) insert(e refEntry) {
	i := len(m.list)
	for i > 0 && (e.at < m.list[i-1].at ||
		(e.at == m.list[i-1].at && e.seq < m.list[i-1].seq)) {
		i--
	}
	m.list = append(m.list, refEntry{})
	copy(m.list[i+1:], m.list[i:])
	m.list[i] = e
}

func (m *refModel) remove(sid int) {
	for i, e := range m.list {
		if e.sid == sid {
			m.list = append(m.list[:i], m.list[i+1:]...)
			return
		}
	}
	panic("reference model: removing unknown event")
}

// runUntil pops everything due by limit, appending sids in fire order.
func (m *refModel) runUntil(limit Time, out []int) []int {
	for len(m.list) > 0 && m.list[0].at <= limit {
		out = append(out, m.list[0].sid)
		m.now = m.list[0].at
		m.list = m.list[1:]
	}
	if m.now < limit {
		m.now = limit
	}
	return out
}

// step pops one event if due; reports whether one ran.
func (m *refModel) step(out []int) ([]int, bool) {
	if len(m.list) == 0 {
		return out, false
	}
	out = append(out, m.list[0].sid)
	m.now = m.list[0].at
	m.list = m.list[1:]
	return out, true
}

func TestKernelMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		runReferenceScript(t, seed)
	}
}

func runReferenceScript(t *testing.T, seed uint64) {
	t.Helper()
	k := NewKernel()
	r := NewRand(seed)
	model := &refModel{}
	var fired, expect []int
	firedSet := make(map[int]bool) // sids whose events have fired
	live := make([]int, 0)         // sids scheduled and not yet cancelled by the script
	ids := make(map[int]EventID)   // script id -> kernel id
	var dead []EventID             // fired or cancelled ids (stale-cancel fodder)
	seq := uint64(0)               // mirrors the kernel's schedule order
	sid := 0

	check := func(ctx string) {
		t.Helper()
		if len(fired) != len(expect) {
			t.Fatalf("seed %d %s: kernel fired %d events, reference %d", seed, ctx, len(fired), len(expect))
		}
		for i := range expect {
			if fired[i] != expect[i] {
				t.Fatalf("seed %d %s: fire order diverged at %d: kernel sid %d, reference sid %d",
					seed, ctx, i, fired[i], expect[i])
			}
		}
		if k.Pending() != len(model.list) {
			t.Fatalf("seed %d %s: census diverged: kernel %d pending, reference %d",
				seed, ctx, k.Pending(), len(model.list))
		}
		if k.Now() != model.now {
			t.Fatalf("seed %d %s: clocks diverged: kernel %v, reference %v", seed, ctx, k.Now(), model.now)
		}
	}

	for op := 0; op < 3000; op++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // schedule a burst
			var d Duration
			switch r.Intn(4) {
			case 0:
				d = Duration(r.Intn(3)) // same-tick / delta-cycle
			case 1:
				d = Duration(r.Intn(5 * SlotTicks)) // near, off-grid
			case 2:
				d = Slots(uint64(r.Intn(2 * defaultBuckets))) // slot-aligned, straddles the window edge
			case 3:
				d = Slots(uint64(1000+r.Intn(100000))) + Duration(r.Intn(7)) // far future: far list
			}
			for burst := 1 + r.Intn(3); burst > 0; burst-- {
				my := sid
				sid++
				seq++
				id := k.Schedule(d, func() { fired = append(fired, my); firedSet[my] = true })
				model.insert(refEntry{at: k.Now() + Time(d), seq: seq, sid: my})
				live = append(live, my)
				ids[my] = id
			}
		case 6: // cancel through a held id (live, or fired with a recycled slot)
			if len(live) == 0 {
				continue
			}
			i := r.Intn(len(live))
			my := live[i]
			live = append(live[:i], live[i+1:]...)
			if firedSet[my] {
				// The event already ran; its id is stale and its pool slot
				// may since have been recycled. Cancel must refuse.
				if k.Cancel(ids[my]) {
					t.Fatalf("seed %d: cancel of fired sid %d reported true", seed, my)
				}
				check("after cancel of fired id")
			} else {
				if !k.Cancel(ids[my]) {
					t.Fatalf("seed %d: cancel of live sid %d reported false", seed, my)
				}
				model.remove(my)
			}
			dead = append(dead, ids[my])
			delete(ids, my)
		case 7: // stale cancel: fired or already-cancelled (possibly recycled slot)
			if len(dead) == 0 {
				continue
			}
			if k.Cancel(dead[r.Intn(len(dead))]) {
				t.Fatalf("seed %d: stale cancel reported true", seed)
			}
			check("after stale cancel")
		case 8: // bounded run
			limit := k.Now() + Time(r.Intn(100*SlotTicks))
			k.RunUntil(limit)
			expect = model.runUntil(limit, expect)
			check("after RunUntil")
		case 9: // single step
			var want bool
			expect, want = model.step(expect)
			if got := k.Step(); got != want {
				t.Fatalf("seed %d: Step = %v, reference %v", seed, got, want)
			}
			check("after Step")
		}
	}
	// Drain. Run leaves the clock at the last event rather than TimeMax.
	k.Run()
	for len(model.list) > 0 {
		expect, _ = model.step(expect)
	}
	if len(fired) != len(expect) {
		t.Fatalf("seed %d drain: kernel fired %d, reference %d", seed, len(fired), len(expect))
	}
	for i := range expect {
		if fired[i] != expect[i] {
			t.Fatalf("seed %d drain: order diverged at %d", seed, i)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("seed %d drain: %d events still pending", seed, k.Pending())
	}
}

// TestStackedTicksMatchReference replays office-shaped scripts against
// the reference model: bursts of ~20 events stacked on three ticks of
// one slot, so most inserts land mid-chain, with random cancels of run
// heads, middles and ends, far-future events that migrate into the
// stacked slots, and enough load to double the calendar. After every
// operation the fire order, census and clock must match and the
// calendar's run index must hold.
func TestStackedTicksMatchReference(t *testing.T) {
	offsets := [...]Time{0, 20, HalfSlotTicks}
	for seed := uint64(1); seed <= 8; seed++ {
		k := NewKernel()
		r := NewRand(seed)
		model := &refModel{}
		var fired, expect []int
		firedSet := make(map[int]bool)
		var live []int
		ids := make(map[int]EventID)
		seq := uint64(0)
		sid := 0

		schedule := func(at Time) {
			my := sid
			sid++
			seq++
			ids[my] = k.At(at, func() { fired = append(fired, my); firedSet[my] = true })
			model.insert(refEntry{at: at, seq: seq, sid: my})
			live = append(live, my)
		}
		check := func(ctx string) {
			t.Helper()
			if len(fired) != len(expect) {
				t.Fatalf("seed %d %s: kernel fired %d events, reference %d", seed, ctx, len(fired), len(expect))
			}
			for i := range expect {
				if fired[i] != expect[i] {
					t.Fatalf("seed %d %s: fire order diverged at %d: kernel sid %d, reference sid %d",
						seed, ctx, i, fired[i], expect[i])
				}
			}
			if k.Pending() != len(model.list) || k.Now() != model.now {
				t.Fatalf("seed %d %s: kernel %d pending at %v, reference %d at %v",
					seed, ctx, k.Pending(), k.Now(), len(model.list), model.now)
			}
			if v := k.q.windowViolation() + k.q.runIndexViolation(); v != "" {
				t.Fatalf("seed %d %s: %s", seed, ctx, v)
			}
		}

		for op := 0; op < 2000; op++ {
			switch x := r.Intn(20); {
			case x < 8: // a stack of ~20 events over three ticks of one slot
				slot := k.Now().Slot() + 1 + uint64(r.Intn(40))
				for n := 16 + r.Intn(9); n > 0; n-- {
					schedule(Time(slot*SlotTicks) + offsets[r.Intn(len(offsets))])
				}
			case x < 9: // far future: joins a stacked slot by migration
				slot := k.Now().Slot() + 300 + uint64(r.Intn(100))
				schedule(Time(slot*SlotTicks) + offsets[r.Intn(len(offsets))])
			case x < 14: // cancel a few held ids, live or already fired
				for n := 1 + r.Intn(6); n > 0 && len(live) > 0; n-- {
					i := r.Intn(len(live))
					my := live[i]
					live = append(live[:i], live[i+1:]...)
					if ok := k.Cancel(ids[my]); ok == firedSet[my] {
						t.Fatalf("seed %d: Cancel(sid %d) = %v after fired = %v", seed, my, ok, firedSet[my])
					}
					if !firedSet[my] {
						model.remove(my)
					}
					delete(ids, my)
				}
				check("after cancels")
			case x < 17: // run into the middle of the next slots
				limit := k.Now() + Time(r.Intn(3*SlotTicks))
				k.RunUntil(limit)
				expect = model.runUntil(limit, expect)
				check("after RunUntil")
			default: // a few single steps
				for n := 1 + r.Intn(8); n > 0; n-- {
					var want bool
					expect, want = model.step(expect)
					if got := k.Step(); got != want {
						t.Fatalf("seed %d: Step = %v, reference %v", seed, got, want)
					}
				}
				check("after Step")
			}
		}
		if len(k.q.bucketHead) <= defaultBuckets {
			t.Fatalf("seed %d: calendar never grew: %d buckets", seed, len(k.q.bucketHead))
		}
		k.Run()
		for len(model.list) > 0 {
			expect, _ = model.step(expect)
		}
		check("after drain")
	}
}
