package sim

import (
	"testing"
)

// FuzzKernel throws arbitrary byte-driven scripts of schedule / cancel /
// run / step operations at the kernel and checks the invariants the
// calendar queue must never bend:
//
//   - monotone delivery: events fire in exactly the (at, seq) order of
//     the naive sorted-list reference — never early, never reordered;
//   - exact census: no event is lost or duplicated, Pending always
//     equals the reference list's length, and the clocks agree;
//   - EventInfo reports every freshly scheduled event's (at, seq);
//   - the window invariant: every overflow-heap entry is at or past the
//     calendar window's limit, and every calendar entry is before it;
//   - the run index: every tick run's first node records the run's last
//     node, and every bucket's tail and last-run pointers are right.
//
// The script bytes choose delays (same-tick, off-grid, window-edge,
// far-future heap) and cancel targets, so the corpus explores the
// calendar/heap boundary, cursor migration and window doubling. CI runs
// this as a fuzz smoke alongside FuzzPlacementValidation.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{3, 0, 10, 1, 40, 2, 200, 6, 7, 4})
	f.Add([]byte{1, 5, 5, 5, 5, 5})
	f.Add([]byte{8, 2, 0, 2, 64, 3, 128, 6, 3, 255, 7, 7, 7})
	f.Add([]byte{2, 9, 1, 9, 2, 8, 9, 3, 6, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		k := NewKernel()
		model := &refModel{}
		var fired, expect []int
		var live []EventID
		liveSid := make(map[EventID]int)
		seq := uint64(0)
		sid := 0

		next := func(i *int) byte {
			if *i >= len(script) {
				return 0
			}
			b := script[*i]
			*i++
			return b
		}
		delayFor := func(b byte) Duration {
			switch b % 4 {
			case 0:
				return Duration(b % 3) // same tick
			case 1:
				return Duration(uint64(b) * 97) // off-grid
			case 2:
				return Slots(uint64(b) * uint64(defaultBuckets) / 32) // window edge
			default:
				return Slots(uint64(1000)*uint64(b) + 1) // overflow heap
			}
		}
		check := func(ctx string) {
			t.Helper()
			if len(fired) != len(expect) {
				t.Fatalf("%s: fired %d events, reference %d", ctx, len(fired), len(expect))
			}
			for i := range expect {
				if fired[i] != expect[i] {
					t.Fatalf("%s: order diverged at %d: got sid %d, want %d", ctx, i, fired[i], expect[i])
				}
			}
			if k.Pending() != len(model.list) {
				t.Fatalf("%s: census diverged: kernel %d, reference %d", ctx, k.Pending(), len(model.list))
			}
			if k.Now() != model.now {
				t.Fatalf("%s: clocks diverged: kernel %v, reference %v", ctx, k.Now(), model.now)
			}
			if v := k.q.windowViolation(); v != "" {
				t.Fatalf("%s: %s", ctx, v)
			}
			if v := k.q.runIndexViolation(); v != "" {
				t.Fatalf("%s: %s", ctx, v)
			}
		}

		for i := 0; i < len(script); {
			op := next(&i)
			switch op % 5 {
			case 0, 1: // schedule
				d := delayFor(next(&i))
				my := sid
				sid++
				seq++
				id := k.Schedule(d, func() { fired = append(fired, my) })
				e := refEntry{at: k.Now() + Time(d), seq: seq, sid: my}
				if at, s, ok := k.EventInfo(id); !ok || at != e.at || s != e.seq {
					t.Fatalf("EventInfo = (%v, %d, %v), want (%v, %d, true)", at, s, ok, e.at, e.seq)
				}
				model.insert(e)
				live = append(live, id)
				liveSid[id] = my
				check("after Schedule")
			case 2: // cancel a script-chosen live event
				if len(live) == 0 {
					continue
				}
				j := int(next(&i)) % len(live)
				id := live[j]
				live = append(live[:j], live[j+1:]...)
				my := liveSid[id]
				delete(liveSid, id)
				if k.Cancel(id) {
					model.remove(my)
				}
				// Cancel returning false means the event already fired
				// through an earlier run/step; the reference popped it too.
				check("after cancel")
			case 3: // bounded run
				limit := k.Now() + Time(Slots(uint64(next(&i))))
				k.RunUntil(limit)
				expect = model.runUntil(limit, expect)
				check("after RunUntil")
			case 4: // single step
				var want bool
				expect, want = model.step(expect)
				if got := k.Step(); got != want {
					t.Fatalf("Step = %v, reference %v", got, want)
				}
				check("after Step")
			}
		}
		k.Run()
		for len(model.list) > 0 {
			expect, _ = model.step(expect)
		}
		check("after drain")
	})
}
