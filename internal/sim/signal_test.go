package sim

import "testing"

type memTracer struct {
	names   []string
	changes []struct {
		t Time
		h int
		v any
	}
}

func (m *memTracer) Declare(name, kind string, width int) int {
	m.names = append(m.names, name)
	return len(m.names) - 1
}

func (m *memTracer) Change(t Time, h int, v any) {
	m.changes = append(m.changes, struct {
		t Time
		h int
		v any
	}{t, h, v})
}

func TestSignalTrace(t *testing.T) {
	k := NewKernel()
	tr := &memTracer{}
	k.AddTracer(tr)
	s := NewBool(k, "rx_on", false)

	k.Schedule(10, func() { s.Set(true) })
	k.Schedule(20, func() { s.Set(true) }) // no change: no trace
	k.Schedule(30, func() { s.Set(false) })
	k.Run()

	if len(tr.names) != 1 || tr.names[0] != "rx_on" {
		t.Fatalf("declared = %v", tr.names)
	}
	// initial + two real changes
	if len(tr.changes) != 3 {
		t.Fatalf("changes = %d, want 3", len(tr.changes))
	}
	if tr.changes[1].t != 10 || tr.changes[1].v != true {
		t.Fatalf("change[1] = %+v", tr.changes[1])
	}
	if tr.changes[2].t != 30 || tr.changes[2].v != false {
		t.Fatalf("change[2] = %+v", tr.changes[2])
	}
}

func TestSignalKinds(t *testing.T) {
	k := NewKernel()
	i := NewInt(k, "freq", 7, 3)
	if i.Get() != 3 {
		t.Fatal("int initial wrong")
	}
	i.Set(78)
	if i.Get() != 78 {
		t.Fatal("int set wrong")
	}
	s := NewString(k, "state", "STANDBY")
	s.Set("INQUIRY")
	if s.Get() != "INQUIRY" {
		t.Fatal("string set wrong")
	}
	if s.Name() != "state" {
		t.Fatal("name wrong")
	}
}

func TestSignalNoTracerOK(t *testing.T) {
	k := NewKernel()
	b := NewBool(k, "x", false)
	b.Set(true) // must not panic without tracers
	if !b.Get() {
		t.Fatal("value lost")
	}
}
