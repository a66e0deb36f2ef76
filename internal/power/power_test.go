package power

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestMeterIntegration(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k)
	k.Schedule(100, func() { m.Set(true) })
	k.Schedule(300, func() { m.Set(false) })
	k.Schedule(1000, func() {})
	k.Run()
	if m.OnTime() != 200 {
		t.Fatalf("OnTime = %d, want 200", m.OnTime())
	}
	if got := m.Activity(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Activity = %v, want 0.2", got)
	}
	if m.Activations() != 1 {
		t.Fatalf("Activations = %d", m.Activations())
	}
}

func TestMeterOpenIntervalCounted(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k)
	k.Schedule(0, func() { m.Set(true) })
	k.Schedule(500, func() {})
	k.Run()
	if !m.On() {
		t.Fatal("meter should be on")
	}
	if m.OnTime() != 500 {
		t.Fatalf("open interval OnTime = %d", m.OnTime())
	}
	if m.Activity() != 1.0 {
		t.Fatalf("Activity = %v, want 1", m.Activity())
	}
}

func TestRedundantSetsIgnored(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k)
	k.Schedule(10, func() { m.Set(true) })
	k.Schedule(20, func() { m.Set(true) })
	k.Schedule(30, func() { m.Set(false) })
	k.Schedule(40, func() { m.Set(false) })
	k.Run()
	if m.OnTime() != 20 || m.Activations() != 1 {
		t.Fatalf("OnTime=%d Activations=%d", m.OnTime(), m.Activations())
	}
}

func TestZeroElapsedActivity(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k)
	if m.Activity() != 0 {
		t.Fatal("Activity at t=0 must be 0")
	}
}

func TestReset(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k)
	k.Schedule(0, func() { m.Set(true) })
	k.Schedule(100, func() { m.Set(false) })
	k.Schedule(200, func() { m.Reset() })
	k.Schedule(400, func() {})
	k.Run()
	if m.OnTime() != 0 {
		t.Fatalf("OnTime after reset = %d", m.OnTime())
	}
	if m.Activity() != 0 {
		t.Fatalf("Activity after reset = %v", m.Activity())
	}
}

func TestResetWhileOn(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k)
	k.Schedule(0, func() { m.Set(true) })
	k.Schedule(100, func() { m.Reset() })
	k.Schedule(200, func() {})
	k.Run()
	// The open interval restarts at the reset point.
	if m.OnTime() != 100 {
		t.Fatalf("OnTime = %d, want 100", m.OnTime())
	}
	if m.Activations() != 1 {
		t.Fatalf("Activations = %d, want 1", m.Activations())
	}
}

func TestProfileAverage(t *testing.T) {
	k := sim.NewKernel()
	tx, rx := NewMeter(k), NewMeter(k)
	k.Schedule(0, func() { tx.Set(true) })
	k.Schedule(250, func() { tx.Set(false); rx.Set(true) })
	k.Schedule(1000, func() {})
	k.Run()
	p := Profile{TxMW: 40, RxMW: 20, SleepMW: 1}
	// tx on 25%, rx on 75%.
	want := 40*0.25 + 20*0.75 + 1
	if got := p.Average(tx, rx); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Average = %v, want %v", got, want)
	}
	d := DefaultProfile()
	if d.TxMW <= 0 || d.RxMW <= 0 {
		t.Fatal("default profile degenerate")
	}
}
