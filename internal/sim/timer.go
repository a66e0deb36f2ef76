package sim

// Timer is a reusable one-shot event: the kernel-facing closure is
// allocated once, at construction, and every subsequent arm reuses it.
// Re-arming a timer from within its own callback (a self-rescheduling
// slot loop) therefore allocates nothing, which is what keeps the
// per-slot callbacks of the baseband layer off the garbage collector.
//
// A timer holds at most one pending event. Arming an armed timer
// cancels the previous arm first — callers that need two concurrent
// pending callbacks use two timers.
type Timer struct {
	k    *Kernel
	id   EventID // 0 while idle
	fire Event   // the once-allocated wrapper handed to the kernel
	fn   Event   // current callback, swapped per arm
}

// NewTimer creates an idle timer on the kernel. fn is the default
// callback; AtFn can override it per arm. Pass nil when every
// arm supplies its own callback.
func (k *Kernel) NewTimer(fn Event) *Timer {
	t := &Timer{k: k, fn: fn}
	t.fire = func() {
		t.id = 0
		t.fn()
	}
	return t
}

// Armed reports whether the timer has a pending event.
func (t *Timer) Armed() bool { return t.id != 0 }

// Stop cancels the pending event, if any, and reports whether one was
// cancelled. Stopping an idle timer is a no-op.
func (t *Timer) Stop() bool {
	if t.id == 0 {
		return false
	}
	ok := t.k.Cancel(t.id)
	t.id = 0
	return ok
}

// Schedule arms the timer to run its callback after delay ticks,
// replacing any pending arm.
func (t *Timer) Schedule(delay Duration) {
	t.Stop()
	t.id = t.k.Schedule(delay, t.fire)
}

// At arms the timer to run its callback at absolute time at, replacing
// any pending arm.
func (t *Timer) At(at Time) {
	t.Stop()
	t.id = t.k.At(at, t.fire)
}

// AtFn replaces the timer's callback — for this arm and every later
// one until the next AtFn call — and arms it at absolute time at.
// Passing a pre-bound method value keeps the arm allocation-free.
// Callers that alternate callbacks on one timer must use AtFn for every
// arm (plain Schedule/At re-fire whichever callback was installed last).
func (t *Timer) AtFn(at Time, fn Event) {
	t.fn = fn
	t.At(at)
}

// Pending reports the pending arm's timestamp and global sequence
// number (see Kernel.EventInfo). ok is false when the timer is idle —
// snapshot code captures exactly the armed timers.
func (t *Timer) Pending() (at Time, seq uint64, ok bool) {
	if t.id == 0 {
		return 0, 0, false
	}
	return t.k.EventInfo(t.id)
}
