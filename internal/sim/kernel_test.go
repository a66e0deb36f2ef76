package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(20, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(10, func() { got = append(got, 2) }) // same time, later schedule
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Fatalf("final time = %v, want 20", k.Now())
	}
}

func TestZeroDelayRunsAfterSameTimeEvents(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Schedule(5, func() {
		got = append(got, "a")
		k.Schedule(0, func() { got = append(got, "delta") })
	})
	k.Schedule(5, func() { got = append(got, "b") })
	k.Run()
	want := []string{"a", "b", "delta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	id := k.Schedule(10, func() { ran = true })
	if !k.Cancel(id) {
		t.Fatal("first Cancel should report true")
	}
	if k.Cancel(id) {
		t.Fatal("second Cancel should report false")
	}
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelFromOtherEvent(t *testing.T) {
	k := NewKernel()
	ran := false
	id := k.Schedule(10, func() { ran = true })
	k.Schedule(5, func() { k.Cancel(id) })
	k.Run()
	if ran {
		t.Fatal("event cancelled at t=5 still ran at t=10")
	}
}

func TestRunUntilAdvancesClockToLimit(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.Schedule(1000, func() {})
	end := k.RunUntil(100)
	if end != 100 {
		t.Fatalf("RunUntil(100) = %v, want 100", end)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (the t=1000 event)", k.Pending())
	}
	// Continue: the future event must still fire.
	fired := k.Step()
	if !fired || k.Now() != 1000 {
		t.Fatalf("Step fired=%v now=%v, want true/1000", fired, k.Now())
	}
}

func TestAtPanicsOnPast(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestSchedulePanicsOnNil(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	k.Schedule(1, nil)
}

func TestTimeConversions(t *testing.T) {
	if Microseconds(625) != Duration(SlotTicks) {
		t.Fatal("625us != one slot")
	}
	if Slots(3) != 3*SlotTicks {
		t.Fatal("Slots(3) wrong")
	}
	if Time(SlotTicks*7).Slot() != 7 {
		t.Fatal("Slot() wrong")
	}
	if Time(5).String() != "2.5us" {
		t.Fatalf("String = %q", Time(5).String())
	}
	if Time(4).String() != "2us" {
		t.Fatalf("String = %q", Time(4).String())
	}
	if Time(SlotTicks).Micros() != 625 {
		t.Fatal("Micros wrong")
	}
}

// Property: with any batch of scheduled delays, events fire in
// non-decreasing time order and the kernel visits every one.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.Schedule(Duration(d), func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilReentryPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant RunUntil did not panic")
			}
		}()
		k.Run()
	})
	k.Run()
}

func TestCancelCompactsQueue(t *testing.T) {
	k := NewKernel()
	nop := func() {}
	// Schedule far-future events and cancel almost all of them: a
	// long-period timer re-armed many times before it fires.
	const n = 10000
	ids := make([]EventID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, k.Schedule(Slots(uint64(1000+i)), nop))
	}
	for _, id := range ids[:n-1] {
		if !k.Cancel(id) {
			t.Fatal("cancel failed")
		}
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// These events are far beyond the calendar window, so they all sit in
	// the far list; each cancel must have cut its entry out at once
	// instead of retaining it until its (distant) due time.
	q := &k.q
	if last, _ := decodeID(ids[n-1]); len(q.far) != 1 || q.far[0] != last {
		t.Fatalf("far list holds %v for the 1 live event", q.far)
	}
	if len(q.free) != n-1 {
		t.Fatalf("%d pool slots free after %d cancels", len(q.free), n-1)
	}
}

func TestCancelCompactionPreservesOrder(t *testing.T) {
	k := NewKernel()
	var fired []int
	ids := make([]EventID, 0, 512)
	for i := 0; i < 512; i++ {
		i := i
		// Interleave due times so inserts land all over the structures.
		ids = append(ids, k.Schedule(Slots(uint64((i*37)%512)), func() {
			fired = append(fired, i)
		}))
	}
	// Cancel two thirds, out of schedule order.
	for i, id := range ids {
		if i%3 != 0 {
			k.Cancel(id)
		}
	}
	k.Run()
	if len(fired) != 512/3+1 {
		t.Fatalf("fired %d events", len(fired))
	}
	for j := 1; j < len(fired); j++ {
		a, b := fired[j-1], fired[j]
		ta, tb := (a*37)%512, (b*37)%512
		if ta > tb || (ta == tb && a > b) {
			t.Fatalf("order violated: event %d (t=%d) before %d (t=%d)", a, ta, b, tb)
		}
	}
}

func TestCancelHeavyChurnStaysBounded(t *testing.T) {
	k := NewKernel()
	nop := func() {}
	// Continuously re-armed timeout: schedule, cancel, re-schedule.
	var id EventID
	id = k.Schedule(Slots(100000), nop)
	for i := 0; i < 50000; i++ {
		k.Cancel(id)
		id = k.Schedule(Slots(100000+uint64(i)), nop)
		if len(k.q.far) != 1 {
			t.Fatalf("far list holds %d entries after re-arm %d, want 1", len(k.q.far), i)
		}
	}
	if len(k.q.nodes) > 4 {
		t.Fatalf("re-arm churn grew the pool to %d nodes", len(k.q.nodes))
	}
}

// TestCancelChurnInCalendarWindowUnlinksEagerly: the same re-arm pattern
// on near-future (in-window) events must unlink each cancelled event
// from its chain at once.
func TestCancelChurnInCalendarWindowUnlinksEagerly(t *testing.T) {
	k := NewKernel()
	nop := func() {}
	var id EventID
	id = k.Schedule(Slots(10), nop)
	for i := 0; i < 50000; i++ {
		k.Cancel(id)
		id = k.Schedule(Slots(uint64(10+i%50)), nop)
		if k.q.calCount != 1 {
			t.Fatalf("calendar census = %d after re-arm %d, want 1", k.q.calCount, i)
		}
	}
	if len(k.q.nodes) > 4 {
		t.Fatalf("re-arm churn grew the pool to %d nodes", len(k.q.nodes))
	}
}

// TestCalendarWindowMigration: events scheduled beyond the calendar
// window start in the far list and must migrate into the calendar
// as the cursor advances, firing in exact (at, seq) order throughout.
func TestCalendarWindowMigration(t *testing.T) {
	k := NewKernel()
	var fired []uint64
	// Span several windows: defaultBuckets slots apart guarantees many
	// events start out of window.
	for i := 0; i < 50; i++ {
		slot := uint64(i) * defaultBuckets / 3
		k.At(Time(Slots(slot)), func() { fired = append(fired, slot) })
	}
	k.Run()
	if len(fired) != 50 {
		t.Fatalf("fired %d events, want 50", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("migration broke order: %v", fired)
		}
	}
	if len(k.q.far) != 0 || k.q.calCount != 0 {
		t.Fatalf("leftover entries: far=%d cal=%d", len(k.q.far), k.q.calCount)
	}
}

// TestCalendarGrowsOnSkew: pouring far more in-window events into the
// calendar than it has buckets must trigger a resize, and the resize
// must preserve the same-tick schedule order.
func TestCalendarGrowsOnSkew(t *testing.T) {
	k := NewKernel()
	var fired []int
	n := 4 * defaultBuckets
	for i := 0; i < n; i++ {
		i := i
		// Many same-tick ties on a handful of nearby slots.
		k.At(Time(Slots(uint64(i%7))), func() { fired = append(fired, i) })
	}
	if len(k.q.bucketHead) <= defaultBuckets {
		t.Fatalf("calendar did not grow: %d buckets for %d events", len(k.q.bucketHead), n)
	}
	k.Run()
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a%7 > b%7 || (a%7 == b%7 && a > b) {
			t.Fatalf("resize broke (at, seq) order at %d: %d before %d", i, a, b)
		}
	}
}

// windowViolation describes the first queued event on the wrong side of
// the calendar window's limit, or the first break in the far list's
// order or census, or returns "" when all hold: the far list is sorted
// by strictly descending (at, seq), every far entry is at or past
// calLim, every calendar entry is before it, and the two structures
// together hold exactly Pending() events.
func (q *queue) windowViolation() string {
	for i, s := range q.far {
		if at := q.nodes[s].at; at < q.calLim {
			return fmt.Sprintf("far entry at %d below calLim %d", at, q.calLim)
		}
		if i > 0 && !q.lessNode(s, q.far[i-1]) {
			return fmt.Sprintf("far list out of descending (at, seq) order at index %d", i)
		}
	}
	chained := 0
	for _, h := range q.bucketHead {
		for s := h; s >= 0; s = q.nodes[s].next {
			chained++
		}
	}
	if chained != q.calCount {
		return fmt.Sprintf("calendar chains hold %d events, census %d", chained, q.calCount)
	}
	if free := len(q.nodes) - len(q.free); free != len(q.far)+q.calCount {
		return fmt.Sprintf("%d pool slots in use, %d far + %d calendar events", free, len(q.far), q.calCount)
	}
	for _, h := range q.bucketHead {
		for s := h; s >= 0; s = q.nodes[s].next {
			if at := q.nodes[s].at; at >= q.calLim {
				return fmt.Sprintf("calendar entry at %d at or past calLim %d", at, q.calLim)
			}
		}
	}
	return ""
}

// runIndexViolation describes the first calendar bucket whose tick-run
// index disagrees with its chain, or returns "" when the index holds:
// each chain is sorted by (at, seq) and lives in its own bucket, every
// run's first node records the run's last node, bucketTail is the
// chain's last node, bucketLastRun the first node of its last run, and
// the occupancy bit is set exactly for non-empty buckets.
func (q *queue) runIndexViolation() string {
	for b, h := range q.bucketHead {
		occ := q.occ[b>>6]>>(b&63)&1 == 1
		if h < 0 {
			if q.bucketTail[b] != -1 || q.bucketLastRun[b] != -1 || occ {
				return fmt.Sprintf("empty bucket %d: tail %d, last run %d, occupied %v", b, q.bucketTail[b], q.bucketLastRun[b], occ)
			}
			continue
		}
		if !occ {
			return fmt.Sprintf("bucket %d holds events but its occupancy bit is clear", b)
		}
		run, last := int32(-1), int32(-1)
		for s := h; s >= 0; s = q.nodes[s].next {
			n := &q.nodes[s]
			if q.bucketOf(n.at) != uint64(b) {
				return fmt.Sprintf("event at %d chained in bucket %d", n.at, b)
			}
			if last >= 0 && !q.lessNode(last, s) {
				return fmt.Sprintf("bucket %d: chain out of (at, seq) order at %d", b, n.at)
			}
			if last < 0 || q.nodes[last].at != n.at {
				if run >= 0 && q.nodes[run].runEnd != last {
					return fmt.Sprintf("bucket %d: run at %d ends at node %d, index says %d", b, q.nodes[run].at, last, q.nodes[run].runEnd)
				}
				run = s
			}
			last = s
		}
		if q.nodes[run].runEnd != last {
			return fmt.Sprintf("bucket %d: last run at %d ends at node %d, index says %d", b, q.nodes[run].at, last, q.nodes[run].runEnd)
		}
		if q.bucketTail[b] != last || q.bucketLastRun[b] != run {
			return fmt.Sprintf("bucket %d: tail %d and last run %d, want %d and %d", b, q.bucketTail[b], q.bucketLastRun[b], last, run)
		}
	}
	return ""
}

// TestCalendarRunIndexAnyOrder: Schedule always inserts the newest seq
// of its tick, but the chain must also take an older seq anywhere in a
// run — at its head, inside it or before it — and unlink any node.
// Nodes go straight into one bucket in random (at, seq) order; after
// every insert and unlink the chain must be the sorted set and the run
// index must hold.
func TestCalendarRunIndexAnyOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewRand(seed)
		k := NewKernel()
		q := &k.q
		perm := make([]int, 60)
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		var in []int32
		check := func(ctx string) {
			t.Helper()
			if v := q.runIndexViolation(); v != "" {
				t.Fatalf("seed %d %s: %s", seed, ctx, v)
			}
			n := 0
			for b := range q.bucketHead {
				for s := q.bucketHead[b]; s >= 0; s = q.nodes[s].next {
					n++
				}
			}
			if n != len(in) {
				t.Fatalf("seed %d %s: %d chained nodes, want %d", seed, ctx, n, len(in))
			}
		}
		for _, p := range perm {
			s := q.alloc()
			// Four ticks in slot 3, so every node shares one bucket.
			q.nodes[s].at = Time(3*SlotTicks + p%4)
			q.nodes[s].seq = uint64(p)
			q.calInsert(s)
			in = append(in, s)
			check("after insert")
		}
		for len(in) > 0 {
			i := r.Intn(len(in))
			s := in[i]
			in = append(in[:i], in[i+1:]...)
			q.calUnlink(s)
			q.release(s)
			check("after unlink")
		}
	}
}

// TestGrowMigratesFarEvents: a doubling widens the window, so it must
// pull the far events the wider window now covers into the calendar
// at once, not at the next cursor advance.
func TestGrowMigratesFarEvents(t *testing.T) {
	k := NewKernel()
	var fired []uint64
	k.At(Time(Slots(300)), func() { fired = append(fired, 300) }) // past the 256-slot window
	n := 2*defaultBuckets + 1
	for i := 0; i < n; i++ {
		slot := uint64(i % 200)
		k.At(Time(Slots(slot)), func() { fired = append(fired, slot) })
	}
	if len(k.q.bucketHead) != 2*defaultBuckets {
		t.Fatalf("calendar has %d buckets after %d in-window events, want %d", len(k.q.bucketHead), n, 2*defaultBuckets)
	}
	if v := k.q.windowViolation() + k.q.runIndexViolation(); v != "" {
		t.Fatalf("after the doubling: %s", v)
	}
	k.Run()
	if len(fired) != n+1 || fired[n] != 300 {
		t.Fatalf("fired %d events, last %v; want %d ending at slot 300", len(fired), fired[len(fired)-1], n+1)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("slot %d fired after slot %d", fired[i], fired[i-1])
		}
	}
}

// TestNearTimeMaxMatchesReference: at the end of the time axis the
// window is clamped at TimeMax. Three rounds of 1,000 events each, at
// exactly TimeMax, in its last 5 ticks or uniform between now and
// TimeMax, must fire in the reference model's (at, seq) order while the
// cursor jumps to the end of the axis and the calendar grows.
func TestNearTimeMaxMatchesReference(t *testing.T) {
	k := NewKernel()
	model := &refModel{}
	r := NewRand(7)
	var fired, expect []int
	start := TimeMax - Time(Slots(300))
	k.RunUntil(start)
	model.runUntil(start, nil)
	sid, seq := 0, uint64(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 1000; i++ {
			var at Time
			switch r.Intn(3) {
			case 0:
				at = TimeMax
			case 1:
				at = TimeMax - 1 - Time(r.Intn(5))
			default:
				at = k.Now() + Time(r.Uint64()%uint64(TimeMax-k.Now()))
			}
			my := sid
			sid++
			seq++
			k.At(at, func() { fired = append(fired, my) })
			model.insert(refEntry{at: at, seq: seq, sid: my})
		}
		if v := k.q.windowViolation(); v != "" {
			t.Fatalf("round %d, after scheduling: %s", round, v)
		}
		limit := k.Now() + (TimeMax-k.Now())/4
		if round == 2 {
			limit = TimeMax
		}
		k.RunUntil(limit)
		expect = model.runUntil(limit, expect)
		if v := k.q.windowViolation(); v != "" {
			t.Fatalf("round %d, after RunUntil: %s", round, v)
		}
	}
	if len(fired) != 3000 || len(expect) != 3000 {
		t.Fatalf("fired %d events, reference %d, want 3000", len(fired), len(expect))
	}
	for i := range expect {
		if fired[i] != expect[i] {
			t.Fatalf("order diverged at %d: got sid %d, want %d", i, fired[i], expect[i])
		}
	}
	if len(k.q.bucketHead) <= defaultBuckets {
		t.Fatalf("calendar never grew: %d buckets", len(k.q.bucketHead))
	}
}
