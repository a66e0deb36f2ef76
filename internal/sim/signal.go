package sim

// Tracer receives value changes from traced signals. The VCD writer in
// internal/vcd implements it; tests use in-memory tracers.
type Tracer interface {
	// Declare registers a signal before the first change is recorded and
	// returns an opaque handle used for subsequent changes.
	Declare(name, kind string, width int) int
	// Change records that signal handle h took value v at time t. Values
	// are bool, int64/uint64, or string depending on the declared kind.
	Change(t Time, h int, v any)
}

// AddTracer attaches a tracer that future signals will register with.
func (k *Kernel) AddTracer(tr Tracer) { k.tracers = append(k.tracers, tr) }

type traceRef struct {
	tr Tracer
	h  int
}

// Signal is a traced value holder, the analogue of a
// SystemC sc_signal at behavioural level. Writes take effect immediately
// (the kernel's same-time event ordering supplies delta-cycle semantics)
// and reach every tracer synchronously on change.
type Signal[T comparable] struct {
	k     *Kernel
	name  string
	value T
	refs  []traceRef
}

// NewSignal creates a signal with an initial value and registers it with
// every tracer attached to the kernel. kind is the VCD-level type: "wire"
// for bool, "integer" for numeric, "string" for text.
func NewSignal[T comparable](k *Kernel, name, kind string, width int, initial T) *Signal[T] {
	s := &Signal[T]{k: k, name: name, value: initial}
	for _, tr := range k.tracers {
		h := tr.Declare(name, kind, width)
		s.refs = append(s.refs, traceRef{tr, h})
		tr.Change(k.now, h, initial)
	}
	return s
}

// NewBool creates a 1-bit traced signal.
func NewBool(k *Kernel, name string, initial bool) *Signal[bool] {
	return NewSignal(k, name, "wire", 1, initial)
}

// NewInt creates an integer traced signal of the given bit width.
func NewInt(k *Kernel, name string, width int, initial int64) *Signal[int64] {
	return NewSignal(k, name, "integer", width, initial)
}

// NewString creates a text signal (rendered as a VCD real-string).
func NewString(k *Kernel, name, initial string) *Signal[string] {
	return NewSignal(k, name, "string", 8, initial)
}

// Name returns the signal's hierarchical name.
func (s *Signal[T]) Name() string { return s.name }

// Get returns the current value.
func (s *Signal[T]) Get() T { return s.value }

// Set writes a new value; if it differs from the current one the change is
// traced immediately.
func (s *Signal[T]) Set(v T) {
	if v == s.value {
		return
	}
	s.value = v
	for _, r := range s.refs {
		r.tr.Change(s.k.now, r.h, v)
	}
}
