package sim

import (
	"testing"
)

// Table-driven edge cases for Kernel.NextDue, the quiescence probe the
// whole-world idle fast-forward trusts (see baseband's quiescence
// path). Until now it was only exercised incidentally; these cases pin
// it across the calendar-window/overflow-heap boundary, immediately
// after cursor-advance migration and window-doubling rehash, and
// through heap tombstones.
func TestNextDueEdgeCases(t *testing.T) {
	calLim0 := func() Time { return NewKernel().q.calLim } // initial window edge
	cases := []struct {
		name string
		make func() *Kernel // build a kernel in the state under test
		want Time
		ok   bool
	}{
		{
			name: "empty kernel",
			make: NewKernel,
			ok:   false,
		},
		{
			name: "calendar-only event",
			make: func() *Kernel {
				k := NewKernel()
				k.Schedule(Slots(3), func() {})
				return k
			},
			want: Time(Slots(3)), ok: true,
		},
		{
			name: "heap-only event (beyond the window)",
			make: func() *Kernel {
				k := NewKernel()
				k.Schedule(Slots(defaultBuckets*10), func() {})
				if k.q.calCount != 0 || len(k.q.heap) != 1 {
					t.Fatal("premise broken: event not in the overflow heap")
				}
				return k
			},
			want: Time(Slots(defaultBuckets * 10)), ok: true,
		},
		{
			name: "one tick inside the window edge goes to the calendar",
			make: func() *Kernel {
				k := NewKernel()
				k.At(calLim0()-1, func() {})
				if k.q.calCount != 1 {
					t.Fatal("premise broken: calLim-1 not in the calendar")
				}
				return k
			},
			want: calLim0() - 1, ok: true,
		},
		{
			name: "exactly at the window edge goes to the heap",
			make: func() *Kernel {
				k := NewKernel()
				k.At(calLim0(), func() {})
				if len(k.q.heap) != 1 {
					t.Fatal("premise broken: calLim event not in the heap")
				}
				return k
			},
			want: calLim0(), ok: true,
		},
		{
			name: "straddling the boundary reports the calendar side",
			make: func() *Kernel {
				k := NewKernel()
				k.At(calLim0()+5, func() {})
				k.At(calLim0()-5, func() {})
				return k
			},
			want: calLim0() - 5, ok: true,
		},
		{
			name: "after migrate: heap event pulled into the advanced window",
			make: func() *Kernel {
				k := NewKernel()
				far := Time(Slots(defaultBuckets + 10))
				k.At(far, func() {})                           // heap at schedule time
				k.At(Time(Slots(defaultBuckets-2)), func() {}) // near the old edge
				k.RunUntil(Time(Slots(defaultBuckets - 1)))    // cursor advance migrates
				q := &k.q
				if q.calCount != 1 || len(q.heap) != 0 {
					t.Fatalf("premise broken: not migrated (cal=%d heap=%d)", q.calCount, len(q.heap))
				}
				return k
			},
			want: Time(Slots(defaultBuckets + 10)), ok: true,
		},
		{
			name: "after window-doubling rehash",
			make: func() *Kernel {
				k := NewKernel()
				// Overfill the calendar to force growCalendar, with the
				// minimum scheduled in the middle of the pour.
				for i := 0; i < 2*defaultBuckets; i++ {
					k.Schedule(Slots(uint64(5+i%7)), func() {})
				}
				k.Schedule(Slots(2), func() {})
				for i := 0; i < defaultBuckets; i++ {
					k.Schedule(Slots(uint64(5+i%7)), func() {})
				}
				if len(k.q.bucketHead) <= defaultBuckets {
					t.Fatal("premise broken: calendar did not double")
				}
				return k
			},
			want: Time(Slots(2)), ok: true,
		},
		{
			name: "widened window admits a formerly-out-of-window event",
			make: func() *Kernel {
				k := NewKernel()
				beyond := Time(Slots(defaultBuckets + 50)) // heap under the initial window
				k.At(beyond, func() {})
				for i := 0; i < 3*defaultBuckets; i++ { // force doubling: window now covers `beyond`
					k.Schedule(Slots(uint64(i%11)), func() {})
				}
				k.RunUntil(Time(Slots(defaultBuckets))) // drain near work; cursor advance migrates
				q := &k.q
				if len(q.heap) != 0 || q.calCount != 1 {
					t.Fatalf("premise broken: beyond-event not migrated (cal=%d heap=%d)", q.calCount, len(q.heap))
				}
				return k
			},
			want: Time(Slots(defaultBuckets + 50)), ok: true,
		},
		{
			name: "sees through cancelled heap tombstones",
			make: func() *Kernel {
				k := NewKernel()
				early := k.Schedule(Slots(1000), func() {})
				k.Schedule(Slots(2000), func() {})
				k.Cancel(early) // tombstone at the heap head
				return k
			},
			want: Time(Slots(2000)), ok: true,
		},
		{
			name: "all events cancelled",
			make: func() *Kernel {
				k := NewKernel()
				a := k.Schedule(Slots(3), func() {})
				b := k.Schedule(Slots(3000), func() {})
				k.Cancel(a)
				k.Cancel(b)
				return k
			},
			ok: false,
		},
		{
			name: "degenerate far-future window (calLim overflow guard)",
			make: func() *Kernel {
				k := NewKernel()
				k.At(TimeMax-5, func() {})
				k.At(TimeMax-9, func() {})
				return k
			},
			want: TimeMax - 9, ok: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.make()
			due, ok := k.NextDue()
			if ok != tc.ok {
				t.Fatalf("NextDue ok = %v, want %v", ok, tc.ok)
			}
			if ok && due != tc.want {
				t.Fatalf("NextDue = %v, want %v", due, tc.want)
			}
			// NextDue is a pure probe: asking again, and then draining,
			// must agree with itself.
			if due2, ok2 := k.NextDue(); due2 != due || ok2 != ok {
				t.Fatalf("NextDue not idempotent: (%v,%v) then (%v,%v)", due, ok, due2, ok2)
			}
			if ok {
				if end := k.Run(); end < due {
					t.Fatalf("drain ended at %v, before the reported due time %v", end, due)
				}
			}
		})
	}
}
