package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call: an interval recorded by btbench around a
// call into one layer of the program under test. Spans are named
// "<layer>.<call>"; Parent links a span to the one that caused it and
// Op names the replica (its seed) or the job (its submission index).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps finished spans in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths call it unchanged.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended. The zero value
// (what a nil tracer hands out) records nothing.
type openSpan struct {
	tr *tracer
	span
}

// start opens a span under parent (0 = a root span).
func (t *tracer) start(name string, parent, op int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{tr: t, span: span{
		ID: t.next.Add(1), Parent: parent, Name: name, Op: op,
		Start: int64(time.Since(t.t0)),
	}}
}

// child opens a span caused by o, for the same operation.
func (o openSpan) child(name string) openSpan { return o.tr.start(name, o.ID, o.Op) }

// end closes the span and records it.
func (o openSpan) end() {
	if o.tr == nil {
		return
	}
	o.End = int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.span)
	o.tr.mu.Unlock()
}

// finished returns a copy of the recorded spans.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span called name, in the
// given unit.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// selfTime is one span name's total self time: span durations minus the
// part of each span's interval that its child spans cover.
type selfTime struct {
	Name  string
	Count int
	Self  time.Duration
}

// selfTimes sums self time per span name, sorted by descending self
// time. Children that run concurrently (a block's trials on several
// workers) are merged into one covered interval, so a block's self time
// is the time no trial was running.
func selfTimes(spans []span) []selfTime {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := make(map[string]*selfTime)
	for _, s := range spans {
		var covered [][2]int64
		for _, iv := range kids[s.ID] {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if lo < hi {
				covered = append(covered, [2]int64{lo, hi})
			}
		}
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Self += s.dur() - time.Duration(mergeIntervals(covered))
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the self-time table of a traced run.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-22s %9s %12s %12s\n", "span", "count", "self_ms", "self_us/op")
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-22s %9d %12.1f %12.2f\n", st.Name, st.Count,
			float64(st.Self)/1e6, float64(st.Self)/1e3/float64(st.Count))
	}
}
