package channel

import (
	"testing"

	"repro/internal/sim"
)

func TestJammerDestroysInBand(t *testing.T) {
	k, c := setup(0)
	c.AddJammer(30, 52, 1.0)
	rxIn := &fakeRx{name: "in"}
	rxOut := &fakeRx{name: "out"}
	c.Tune(rxIn, 40)  // jammed band
	c.Tune(rxOut, 10) // clear band
	k.Schedule(0, func() { c.Transmit("a", 40, vec(50), nil) })
	k.Schedule(200, func() { c.Transmit("a", 10, vec(50), nil) })
	k.Run()
	if len(rxIn.got) != 0 || rxIn.collided != 1 {
		t.Fatalf("in-band packet survived the jammer: got=%d collided=%d",
			len(rxIn.got), rxIn.collided)
	}
	if len(rxOut.got) != 1 || rxOut.collided != 0 {
		t.Fatalf("out-of-band packet affected: got=%d collided=%d",
			len(rxOut.got), rxOut.collided)
	}
	if c.Stats().Jammed != 1 {
		t.Fatalf("Jammed = %d", c.Stats().Jammed)
	}
}

func TestJammerDutyCycle(t *testing.T) {
	k, c := setup(0)
	c.AddJammer(0, 78, 0.5)
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 5)
	const n = 2000
	for i := 0; i < n; i++ {
		at := sim.Time(uint64(i) * 200)
		k.At(at, func() { c.Transmit("a", 5, vec(50), nil) })
	}
	k.Run()
	frac := float64(len(rx.got)) / n
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("50%% jammer let %.2f through", frac)
	}
}

func TestClearJammers(t *testing.T) {
	k, c := setup(0)
	c.AddJammer(0, 78, 1.0)
	c.ClearJammers()
	rx := &fakeRx{name: "r"}
	c.Tune(rx, 0)
	k.Schedule(0, func() { c.Transmit("a", 0, vec(20), nil) })
	k.Run()
	if len(rx.got) != 1 {
		t.Fatal("cleared jammer still active")
	}
}

func TestJammerValidation(t *testing.T) {
	_, c := setup(0)
	for name, fn := range map[string]func(){
		"bad range": func() { c.AddJammer(50, 40, 0.5) },
		"bad high":  func() { c.AddJammer(0, 79, 0.5) },
		"bad duty":  func() { c.AddJammer(0, 10, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
