package channel

import (
	"testing"

	"repro/internal/sim"
)

type fakeWatcher struct {
	name    string
	shrunk  int
	onEvent func(w *fakeWatcher)
}

func (w *fakeWatcher) QuietHorizonShrunk() {
	w.shrunk++
	if w.onEvent != nil {
		w.onEvent(w)
	}
}

func TestQuietUntilIsMinOverPromises(t *testing.T) {
	_, c := setup(0, 0)
	if q := c.QuietUntil(); q != sim.TimeMax {
		t.Fatalf("empty channel QuietUntil = %v, want TimeMax", q)
	}
	a := c.NewTxPromise(sim.TimeMax)
	b := c.NewTxPromise(5000)
	if q := c.QuietUntil(); q != 5000 {
		t.Fatalf("QuietUntil = %v, want 5000", q)
	}
	a.Promise(3000)
	if q := c.QuietUntil(); q != 3000 {
		t.Fatalf("QuietUntil = %v, want 3000", q)
	}
	b.Promise(sim.TimeMax)
	if q := c.QuietUntil(); q != 3000 {
		t.Fatalf("QuietUntil = %v, want 3000 (a still binds)", q)
	}
	if a.Until() != 3000 || b.Until() != sim.TimeMax {
		t.Fatalf("Until() = %v, %v", a.Until(), b.Until())
	}
}

func TestQuietUntilPinnedWhileInFlight(t *testing.T) {
	k, c := setup(0, 0)
	c.NewTxPromise(sim.TimeMax)
	k.Schedule(100, func() { c.Transmit("m", 10, vec(50), nil) })
	k.Schedule(120, func() {
		if q := c.QuietUntil(); q != k.Now() {
			t.Fatalf("mid-air QuietUntil = %v, want now %v", q, k.Now())
		}
	})
	// After delivery the horizon reopens.
	k.Schedule(1000, func() {
		if q := c.QuietUntil(); q != sim.TimeMax {
			t.Fatalf("post-delivery QuietUntil = %v, want TimeMax", q)
		}
	})
	k.Run()
}

func TestPromiseShrinkNotifiesWatchers(t *testing.T) {
	_, c := setup(0, 0)
	p := c.NewTxPromise(sim.TimeMax)
	w := &fakeWatcher{name: "w"}
	c.WatchQuiet(w)
	p.Promise(700) // shrink
	if w.shrunk != 1 {
		t.Fatalf("shrink notifications = %d, want 1", w.shrunk)
	}
	p.Promise(700) // no-op
	p.Promise(900) // grow
	if w.shrunk != 1 {
		t.Fatalf("grow/no-op must not notify; got %d", w.shrunk)
	}
	// A new transmitter registering counts as a shrink.
	c.NewTxPromise(100)
	if w.shrunk != 2 {
		t.Fatalf("registration notifications = %d, want 2", w.shrunk)
	}
	c.UnwatchQuiet(w)
	p.Promise(10)
	if w.shrunk != 2 {
		t.Fatalf("unwatched watcher notified; got %d", w.shrunk)
	}
	c.UnwatchQuiet(w) // removing twice is a no-op
}

func TestWatcherMayUnsubscribeInCallback(t *testing.T) {
	_, c := setup(0, 0)
	p := c.NewTxPromise(sim.TimeMax)
	var order []string
	a := &fakeWatcher{name: "a"}
	b := &fakeWatcher{name: "b"}
	a.onEvent = func(w *fakeWatcher) { order = append(order, "a"); c.UnwatchQuiet(a) }
	b.onEvent = func(w *fakeWatcher) { order = append(order, "b"); c.UnwatchQuiet(b) }
	c.WatchQuiet(a)
	c.WatchQuiet(b)
	p.Promise(50)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("notification order = %v, want [a b]", order)
	}
	// Both unsubscribed from inside the callback; no one hears the next.
	p.Promise(10)
	if a.shrunk != 1 || b.shrunk != 1 {
		t.Fatalf("post-unsubscribe notifications: a=%d b=%d", a.shrunk, b.shrunk)
	}
}

// TestQuietWatcherSeesInFlightPin: a revocation notification that runs
// while a packet is mid-air must let the watcher read QuietUntil() ==
// now — the new horizon is the present, not the revoked promise's old
// one — and must not disturb the in-flight delivery.
func TestQuietWatcherSeesInFlightPin(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, sim.NewRand(77), Config{BER: 0, Delay: 2})
	rx := &fakeRx{name: "rx"}
	c.Tune(rx, 10)
	p := c.NewTxPromise(sim.TimeMax)
	pinned := false
	w := &fakeWatcher{name: "w"}
	w.onEvent = func(*fakeWatcher) {
		if q := c.QuietUntil(); q == k.Now() {
			pinned = true
		} else {
			t.Errorf("watcher saw horizon %v with a packet in flight (now %v)", q, k.Now())
		}
	}
	c.WatchQuiet(w)
	k.Schedule(100, func() { c.Transmit("m", 10, vec(400), nil) })
	k.Schedule(300, func() { p.Promise(k.Now() + 50) })
	k.Run()
	if w.shrunk == 0 || !pinned {
		t.Fatalf("revocation not observed under in-flight pin (shrunk=%d pinned=%v)", w.shrunk, pinned)
	}
	if len(rx.got) != 1 {
		t.Fatalf("delivery broken by the revocation: %d packets", len(rx.got))
	}
}
