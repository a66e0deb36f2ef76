// Package sim implements a deterministic discrete-event simulation kernel
// in the style of the SystemC scheduler the paper's model runs on.
//
// Time is counted in integer ticks of 0.5 µs so that every Bluetooth
// timing quantity (1 µs bit, 312.5 µs half slot, 625 µs slot) is an exact
// integer. Events scheduled for the same tick fire in the order they were
// scheduled (a total order that plays the role of SystemC delta cycles),
// which makes every simulation run bit-for-bit reproducible.
//
// The scheduler is a calendar queue over the 625 µs slot grid: near-future
// events hash into per-slot buckets (O(1) schedule/cancel/pop for the
// slot-aligned traffic that dominates the model) while far-future events —
// supervision timeouts, long sniff intervals — wait in an overflow binary
// heap until the calendar window reaches them. Each bucket's chain is
// indexed by tick runs, so an insert into a slot where many events
// share a few ticks walks the distinct ticks, not the events. Event
// nodes live in a pool and recycled slots carry a generation tag so
// stale EventIDs can never touch a reused slot. The scheduler is
// allocation-free in steady state.
// See ARCHITECTURE.md, "Performance model".
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulation timestamp in ticks (0.5 µs units).
type Time uint64

// Duration is a span of simulation time in ticks (0.5 µs units).
type Duration uint64

// Tick granularity constants. All Bluetooth timing in this repository is
// expressed with these so that slot arithmetic stays integral.
const (
	// TicksPerMicrosecond is the kernel resolution: 2 ticks = 1 µs.
	TicksPerMicrosecond = 2
	// BitTicks is the on-air duration of one symbol at 1 Mbit/s.
	BitTicks = 2
	// HalfSlotTicks is 312.5 µs, the Bluetooth native-clock period (3.2 kHz).
	HalfSlotTicks = 625
	// SlotTicks is one 625 µs Bluetooth time slot.
	SlotTicks = 1250
)

// TimeMax is the end-of-time sentinel: Run executes until the queue
// drains by running until this limit.
const TimeMax = Time(^uint64(0))

// Microseconds converts a microsecond count to a Duration.
func Microseconds(us uint64) Duration { return Duration(us * TicksPerMicrosecond) }

// Slots converts a slot count to a Duration.
func Slots(n uint64) Duration { return Duration(n * SlotTicks) }

// Micros reports t in microseconds (truncating the half-microsecond bit).
func (t Time) Micros() uint64 { return uint64(t) / TicksPerMicrosecond }

// Slot reports the index of the 625 µs slot containing t.
func (t Time) Slot() uint64 { return uint64(t) / SlotTicks }

// String formats the time as microseconds for logs and waveforms.
func (t Time) String() string {
	us2 := uint64(t)
	if us2%2 == 0 {
		return fmt.Sprintf("%dus", us2/2)
	}
	return fmt.Sprintf("%d.5us", us2/2)
}

// Event is a callback scheduled to run at a simulation time.
type Event func()

// EventID identifies a scheduled event so it can be cancelled. An ID
// packs the pool slot of the event with the slot's generation at
// scheduling time, so an ID held past its event's firing (or
// cancellation) is recognised as stale even after the slot is recycled.
type EventID uint64

// The zero EventID is never issued (slots are encoded +1), so callers
// can use 0 as "no event pending".

// EventID layout: bits 0..31 pool slot + 1, bits 32..63 generation tag.
//
// maxPoolSlots caps the event pool so a slot index fits the int32 chain
// links. ~2.1G simultaneously pending events is far beyond any world
// this model builds; exceeding it panics loudly.
const maxPoolSlots = 1<<31 - 1

const (
	evFree      = iota // slot is on the free list
	evPending          // scheduled, will fire
	evCancelled        // still in the overflow heap, dropped when popped
)

// Where a pending event currently lives.
const (
	locNone = iota // free / not enqueued
	locCal         // chained into a calendar bucket
	locHeap        // in the overflow heap
)

type scheduledEvent struct {
	at     Time
	seq    uint64 // tie-break: schedule order
	fn     Event
	next   int32  // successor in the bucket chain (calendar only), -1 = none
	runEnd int32  // last node of this node's tick run; read only on a run's first node
	gen    uint32 // slot generation, bumped on every release
	state  uint8
	loc    uint8
}

func makeID(slot int32, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | uint64(uint32(slot+1)))
}

// decodeID splits an EventID into pool slot and generation.
func decodeID(id EventID) (slot int32, gen uint32) {
	return int32(uint32(id) - 1), uint32(id >> 32)
}

// defaultBuckets is the initial calendar width in slots. 256 slots
// (160 ms) covers Tpoll deadlines, sniff/hold wakeups and parked-master
// horizons without a detour through the overflow heap; the calendar
// doubles on its own when occupancy outgrows it.
const defaultBuckets = 256

// queue is the kernel's event queue: a calendar over the slot grid plus
// an overflow heap and a pooled node store. One window invariant holds
// between any two operations: every calendar event is before calLim and
// every heap event is at or past it, so the calendar minimum, when there
// is one, is the earliest pending event.
type queue struct {
	nodes []scheduledEvent // event pool; calendar chains and heap index into it
	free  []int32          // recycled pool slots

	// Calendar: one bucket per slot over a power-of-two window of
	// [curSlot, curSlot+len(bucketHead)) slot indices. Chains are kept
	// sorted by (at, seq); occ is a bitmap of non-empty buckets. A chain
	// is a sequence of runs, one per distinct tick: the first node of a
	// run records the run's last node (runEnd), and bucketLastRun is the
	// first node of the chain's last run. An insert walks run heads, not
	// events, and appends at its run's end.
	bucketHead    []int32
	bucketTail    []int32
	bucketLastRun []int32
	occ           []uint64
	bmask         uint64 // len(bucketHead) - 1
	curSlot       uint64 // slot index of the last fired event (cursor)
	calLim        Time   // events with at < calLim go in the calendar; clamped at TimeMax
	calCount      int

	// Overflow heap: binary min-heap over (at, seq) for events at or
	// beyond calLim. Cancellation here is lazy (tombstones + compaction).
	heap          []int32
	heapCancelled int

	live int // pending (not cancelled) events
}

// Kernel is the simulation scheduler. The zero value is not usable; create
// one with NewKernel.
type Kernel struct {
	now     Time
	nextSeq uint64
	running bool
	stopped bool
	tracers []Tracer
	q       queue
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.q.initBuckets(defaultBuckets)
	return k
}

// initBuckets (re)allocates the calendar arrays for n buckets (a power of
// two, multiple of 64) and recomputes the window limit. Chains are not
// preserved; callers re-insert.
func (q *queue) initBuckets(n int) {
	q.bucketHead = make([]int32, n)
	q.bucketTail = make([]int32, n)
	q.bucketLastRun = make([]int32, n)
	for i := range q.bucketHead {
		q.bucketHead[i] = -1
		q.bucketTail[i] = -1
		q.bucketLastRun[i] = -1
	}
	q.occ = make([]uint64, n/64)
	q.bmask = uint64(n) - 1
	q.recalcLim()
}

// recalcLim recomputes the calendar window's exclusive upper bound. Near
// the end of the time axis the window would overflow; calLim is then
// clamped at TimeMax, so only events at exactly TimeMax wait in the
// heap. Every earlier slot still fits the window, one bucket each.
func (q *queue) recalcLim() {
	end := q.curSlot + uint64(len(q.bucketHead))
	if end < q.curSlot || end > ^uint64(0)/SlotTicks {
		q.calLim = TimeMax
		return
	}
	q.calLim = Time(end * SlotTicks)
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports how many events are scheduled and not yet fired.
func (k *Kernel) Pending() int { return k.q.live }

// alloc takes a pool slot off the free list (or grows the pool).
func (q *queue) alloc() int32 {
	if n := len(q.free); n > 0 {
		slot := q.free[n-1]
		q.free = q.free[:n-1]
		return slot
	}
	if len(q.nodes) >= maxPoolSlots {
		panic(fmt.Sprintf("sim: event pool exceeds %d pending events", maxPoolSlots))
	}
	q.nodes = append(q.nodes, scheduledEvent{})
	return int32(len(q.nodes) - 1)
}

// release recycles a pool slot, bumping its generation so any EventID
// still referring to it is recognised as stale.
func (q *queue) release(slot int32) {
	n := &q.nodes[slot]
	n.fn = nil // drop the closure reference eagerly
	n.gen++
	n.state = evFree
	n.loc = locNone
	n.next = -1
	q.free = append(q.free, slot)
}

// Schedule runs fn after delay ticks. A delay of zero fires fn later in
// the current tick, after all previously scheduled same-time events.
func (k *Kernel) Schedule(delay Duration, fn Event) EventID {
	if fn == nil {
		panic("sim: Schedule called with nil event")
	}
	at := k.now + Time(delay)
	if at < k.now {
		panic(fmt.Sprintf("sim: Schedule(%d) overflows the time axis (now %v)", uint64(delay), k.now))
	}
	q := &k.q
	slot := q.alloc()
	k.nextSeq++
	n := &q.nodes[slot]
	n.at, n.seq, n.fn, n.state = at, k.nextSeq, fn, evPending
	if at < q.calLim {
		q.calInsert(slot)
	} else {
		n.loc = locHeap
		q.heapPush(slot)
	}
	q.live++
	return makeID(slot, n.gen)
}

// At runs fn at absolute time t, which must not be in the past.
func (k *Kernel) At(t Time, fn Event) EventID {
	if t < k.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, k.now))
	}
	return k.Schedule(Duration(t-k.now), fn)
}

// EventInfo reports a pending event's timestamp and global sequence
// number. ok is false for fired, cancelled or stale IDs — exactly the
// IDs Cancel would reject. Snapshot code uses it to capture where every
// pending timer sits in the global (at, seq) order.
func (k *Kernel) EventInfo(id EventID) (at Time, seq uint64, ok bool) {
	slot, ok := k.q.lookup(id)
	if !ok {
		return 0, 0, false
	}
	n := &k.q.nodes[slot]
	return n.at, n.seq, true
}

// lookup returns the pool slot a live EventID refers to; ok is false
// for fired, cancelled or stale IDs.
func (q *queue) lookup(id EventID) (slot int32, ok bool) {
	slot, gen := decodeID(id)
	if slot < 0 || int(slot) >= len(q.nodes) {
		return 0, false
	}
	n := &q.nodes[slot]
	return slot, n.state == evPending && n.gen == gen
}

// lessEvent orders events by (at, seq): earlier time first, then
// schedule order — the same-tick total order that stands in for SystemC
// delta cycles. seq is issued by one kernel-global counter, so the order
// is total across the calendar and the heap.
func lessEvent(a, b *scheduledEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// lessNode is lessEvent over two pool slots.
func (q *queue) lessNode(a, b int32) bool {
	return lessEvent(&q.nodes[a], &q.nodes[b])
}

// --- calendar ---

// bucketOf maps an event time to its bucket index. Only valid for times
// inside the current window.
func (q *queue) bucketOf(at Time) uint64 {
	return (uint64(at) / SlotTicks) & q.bmask
}

// calInsertRaw chains slot s into its bucket, keeping the chain sorted by
// (at, seq). Appends at the tail are O(1), which covers the dominant
// pattern: per-slot callbacks re-armed in monotonically increasing
// (at, seq) order. Any other insert walks the chain's tick runs, not its
// events: seq is issued by one global counter, so a freshly scheduled
// event is the newest of its tick and lands at its run's end. Only an
// older seq (a migrated or rehashed event) walks inside its run.
func (q *queue) calInsertRaw(s int32) {
	n := &q.nodes[s]
	n.loc = locCal
	b := q.bucketOf(n.at)
	t := q.bucketTail[b]
	switch {
	case t < 0:
		q.bucketHead[b], q.bucketTail[b], q.bucketLastRun[b] = s, s, s
		n.next, n.runEnd = -1, s
		q.occ[b>>6] |= 1 << (b & 63)
		return
	case q.lessNode(t, s):
		q.nodes[t].next = s
		n.next = -1
		q.bucketTail[b] = s
		if q.nodes[t].at == n.at {
			q.nodes[q.bucketLastRun[b]].runEnd = s
		} else {
			n.runEnd = s
			q.bucketLastRun[b] = s
		}
		return
	}
	// The tail sorts after s, so a run at or past n.at exists: walk run
	// heads to it. prev is the last node before run r (-1 at the head).
	prev, r := int32(-1), q.bucketHead[b]
	for q.nodes[r].at < n.at {
		prev = q.nodes[r].runEnd
		r = q.nodes[prev].next
	}
	rn := &q.nodes[r]
	switch {
	case rn.at > n.at: // s opens a run of its own before r
		n.next, n.runEnd = r, s
		q.linkAfter(b, prev, s)
	case rn.seq > n.seq: // s becomes the first node of r's run
		n.next, n.runEnd = r, rn.runEnd
		q.linkAfter(b, prev, s)
		if q.bucketLastRun[b] == r {
			q.bucketLastRun[b] = s
		}
	default: // inside r's run, after the last node with a smaller seq
		p := r
		if e := rn.runEnd; q.nodes[e].seq < n.seq {
			p = e
			rn.runEnd = s
		} else {
			for q.nodes[q.nodes[p].next].seq < n.seq {
				p = q.nodes[p].next
			}
		}
		n.next = q.nodes[p].next
		q.nodes[p].next = s
	}
}

// linkAfter points prev's chain link (the bucket head when prev is -1)
// at s.
func (q *queue) linkAfter(b uint64, prev, s int32) {
	if prev < 0 {
		q.bucketHead[b] = s
	} else {
		q.nodes[prev].next = s
	}
}

// calInsert is calInsertRaw plus census and skew handling: when live
// calendar events outnumber buckets 2:1 the calendar doubles, widening
// the window.
func (q *queue) calInsert(s int32) {
	q.calInsertRaw(s)
	q.calCount++
	if q.calCount > 2*len(q.bucketHead) {
		q.growCalendar()
	}
}

// growCalendar doubles the bucket count, rehashes every chained event and
// migrates the heap events the wider window now covers. Relative order
// is untouched: chains are rebuilt from the same (at, seq) keys.
func (q *queue) growCalendar() {
	moved := make([]int32, 0, q.calCount)
	for b := range q.bucketHead {
		for s := q.bucketHead[b]; s >= 0; {
			nx := q.nodes[s].next
			moved = append(moved, s)
			s = nx
		}
	}
	q.initBuckets(2 * len(q.bucketHead))
	for _, s := range moved {
		q.calInsertRaw(s)
	}
	q.migrate()
}

// calUnlink removes slot s from its bucket chain (eager cancellation —
// the calendar never carries tombstones). Like an insert, it walks run
// heads to s's tick and then only that run.
func (q *queue) calUnlink(s int32) {
	n := &q.nodes[s]
	b := q.bucketOf(n.at)
	q.calCount--
	if q.bucketHead[b] == s {
		q.unchainHead(b, s)
		return
	}
	prevRun, prev, r := int32(-1), int32(-1), q.bucketHead[b]
	for q.nodes[r].at != n.at {
		prevRun, prev = r, q.nodes[r].runEnd
		r = q.nodes[prev].next
	}
	if r == s { // s heads a run after the first
		q.nodes[prev].next = n.next
		if n.runEnd != s { // the run continues: its next node heads it
			q.nodes[n.next].runEnd = n.runEnd
			if q.bucketLastRun[b] == s {
				q.bucketLastRun[b] = n.next
			}
		} else if q.bucketLastRun[b] == s { // s was the chain's last run
			q.bucketLastRun[b] = prevRun
			q.bucketTail[b] = prev
		}
		return
	}
	p := r
	for q.nodes[p].next != s {
		p = q.nodes[p].next
	}
	q.nodes[p].next = n.next
	if q.nodes[r].runEnd == s {
		q.nodes[r].runEnd = p
	}
	if q.bucketTail[b] == s {
		q.bucketTail[b] = p
	}
}

// unchainHead removes s, the head of bucket b's chain, keeping the run
// index.
func (q *queue) unchainHead(b uint64, s int32) {
	n := &q.nodes[s]
	q.bucketHead[b] = n.next
	switch {
	case n.next < 0:
		q.bucketTail[b], q.bucketLastRun[b] = -1, -1
		q.occ[b>>6] &^= 1 << (b & 63)
	case n.runEnd != s: // the run continues: its next node heads it
		q.nodes[n.next].runEnd = n.runEnd
		if q.bucketLastRun[b] == s {
			q.bucketLastRun[b] = n.next
		}
	}
}

// occScan returns the first non-empty bucket index in [from, to), if any.
func (q *queue) occScan(from, to uint64) (uint64, bool) {
	for wi := from >> 6; wi < (to+63)>>6; wi++ {
		w := q.occ[wi]
		if wi == from>>6 {
			w &= ^uint64(0) << (from & 63)
		}
		if w != 0 {
			b := wi<<6 + uint64(bits.TrailingZeros64(w))
			if b < to {
				return b, true
			}
			return 0, false
		}
	}
	return 0, false
}

// calMin returns the pool slot of the earliest calendar event, or -1.
// The scan starts at the cursor's bucket and wraps: within the window
// [curSlot, curSlot+nb), circular bucket order equals slot order, and
// each sorted chain keeps its minimum at the head.
func (q *queue) calMin() int32 {
	if q.calCount == 0 {
		return -1
	}
	start := q.curSlot & q.bmask
	if b, ok := q.occScan(start, uint64(len(q.bucketHead))); ok {
		return q.bucketHead[b]
	}
	if b, ok := q.occScan(0, start); ok {
		return q.bucketHead[b]
	}
	return -1
}

// --- overflow heap ---

func (q *queue) heapPush(slot int32) {
	q.heap = append(q.heap, slot)
	hq := q.heap
	i := len(hq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.lessNode(hq[i], hq[parent]) {
			break
		}
		hq[i], hq[parent] = hq[parent], hq[i]
		i = parent
	}
}

func (q *queue) siftDown(i int) {
	hq := q.heap
	n := len(hq)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.lessNode(hq[right], hq[left]) {
			smallest = right
		}
		if !q.lessNode(hq[smallest], hq[i]) {
			return
		}
		hq[i], hq[smallest] = hq[smallest], hq[i]
		i = smallest
	}
}

// heapPop removes and returns the head of the heap (which must not be
// empty).
func (q *queue) heapPop() int32 {
	hq := q.heap
	head := hq[0]
	last := len(hq) - 1
	hq[0] = hq[last]
	q.heap = hq[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return head
}

// heapPeekLive drops (and recycles) cancelled entries at the head of the
// heap and returns the pool slot of its next live event without removing
// it (-1 when empty).
func (q *queue) heapPeekLive() int32 {
	for len(q.heap) > 0 {
		head := q.heap[0]
		if q.nodes[head].state == evPending {
			return head
		}
		q.heapPop()
		q.heapCancelled--
		q.release(head)
	}
	return -1
}

// minCompactLen keeps compaction from churning on tiny heaps, where
// lazy deletion is cheaper than a rebuild.
const minCompactLen = 64

// compact rebuilds the overflow heap without the cancelled entries.
// Ordering is untouched: the heap invariant is re-established over the
// same (at, seq) keys, so compaction can never change the event schedule.
func (q *queue) compact() {
	liveQ := q.heap[:0]
	for _, slot := range q.heap {
		if q.nodes[slot].state == evPending {
			liveQ = append(liveQ, slot)
		} else {
			q.release(slot)
		}
	}
	q.heap = liveQ
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
	q.heapCancelled = 0
}

// --- scheduling core ---

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op and reports false.
//
// Calendar events unlink eagerly (chains are short, and the bucket is
// derivable from the timestamp). Heap entries are tombstoned and dropped
// lazily when they surface; once tombstones outnumber the live entries
// the heap is compacted so cancel-heavy workloads (supervision timeouts
// re-armed on every packet) keep it proportional to the live count.
func (k *Kernel) Cancel(id EventID) bool {
	q := &k.q
	slot, ok := q.lookup(id)
	if !ok {
		return false
	}
	n := &q.nodes[slot]
	q.live--
	if n.loc == locCal {
		q.calUnlink(slot)
		q.release(slot)
	} else {
		n.state = evCancelled
		n.fn = nil
		q.heapCancelled++
		if q.heapCancelled > len(q.heap)/2 && len(q.heap) >= minCompactLen {
			q.compact()
		}
	}
	return true
}

// nextLive returns the pool slot of the earliest pending event without
// removing it (-1 when none). Under the window invariant every calendar
// event precedes every heap event, so the heap is read only when the
// calendar is empty.
func (q *queue) nextLive() int32 {
	if c := q.calMin(); c >= 0 {
		return c
	}
	return q.heapPeekLive()
}

// take removes slot s — which must be the value nextLive just returned —
// from its structure and advances the calendar cursor to its slot,
// migrating newly in-window heap events into the calendar.
func (q *queue) take(s int32) {
	n := &q.nodes[s]
	if n.loc == locCal {
		q.unchainHead(q.bucketOf(n.at), s)
		q.calCount--
	} else {
		q.heapPop()
	}
	if ns := uint64(n.at) / SlotTicks; ns > q.curSlot {
		q.curSlot = ns
		q.recalcLim()
		q.migrate()
	}
}

// migrate moves heap events that now fall inside the calendar window into
// their buckets, restoring the window invariant after either window
// change: a cursor advance or a doubling. Every migrated event's slot is
// at or beyond the cursor, so the move can never reorder anything
// already due.
func (q *queue) migrate() {
	for {
		h := q.heapPeekLive()
		if h < 0 || q.nodes[h].at >= q.calLim {
			return
		}
		q.heapPop()
		q.calInsert(h)
	}
}

// fire removes the event in slot s — which must be the value nextLive
// just returned — advances the clock to it and runs its callback. The
// slot is released before the callback runs, so cancelling the firing
// event's own ID from within it is a no-op.
func (k *Kernel) fire(s int32) {
	q := &k.q
	q.take(s)
	n := &q.nodes[s]
	k.now = n.at
	fn := n.fn
	q.live--
	q.release(s)
	fn()
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue drains or Stop is called. It
// returns the final simulation time.
func (k *Kernel) Run() Time { return k.RunUntil(TimeMax) }

// RunUntil executes events with timestamps <= limit (or until Stop). The
// simulation clock is left at min(limit, time of last event) so that
// measurements over a fixed horizon are well defined.
func (k *Kernel) RunUntil(limit Time) Time {
	if k.running {
		panic("sim: RunUntil re-entered from within an event")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for !k.stopped {
		s := k.q.nextLive()
		if s < 0 || k.q.nodes[s].at > limit {
			break
		}
		k.fire(s)
	}
	if k.now < limit && limit != TimeMax {
		k.now = limit
	}
	return k.now
}

// Step executes exactly one event (skipping cancelled ones) and reports
// whether an event ran. Running() is true for the duration of the
// callback, exactly as under RunUntil.
func (k *Kernel) Step() bool {
	s := k.q.nextLive()
	if s < 0 {
		return false
	}
	prev := k.running
	k.running = true
	defer func() { k.running = prev }()
	k.fire(s)
	return true
}

// Running reports whether the kernel is currently inside RunUntil —
// i.e. whether the caller is executing from within an event.
func (k *Kernel) Running() bool { return k.running }
