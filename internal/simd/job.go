package simd

import (
	"context"
	"sync"

	"repro/internal/netspec"
)

// State is a job's lifecycle position. Queued jobs wait in FIFO order
// for a runner slot; terminal states (done, failed, canceled) never
// change again.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state can never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one SSE frame of a job's progress stream.
type Event struct {
	// Type is the SSE event name: "state", "progress" or "snapshot".
	Type string
	// Data is the frame payload, marshaled to JSON on the wire.
	Data any
}

// StateEvent is the payload of "state" frames and the terminal frame
// every subscriber is guaranteed to receive.
type StateEvent struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// ProgressEvent is the payload of "progress" frames: completed and
// total replica counts over the whole campaign.
type ProgressEvent struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// subBuffer is the per-subscriber event buffer. Progress and snapshot
// frames may be dropped when a subscriber falls this far behind; the
// terminal state is never lost because the stream handler re-reads the
// job after the channel closes.
const subBuffer = 64

// Job is one submitted campaign. All mutable fields are guarded by mu;
// the immutable identity fields (ID, Req, Key) are set at submit time
// and read freely.
type Job struct {
	// ID is the engine-assigned job identifier ("j1", "j2", ...).
	ID string
	// Req is the normalized request (points folded, defaults applied).
	Req Request
	// Key is the request's cache key.
	Key string

	// ctx governs the job's whole run; cancel is immutable after
	// Submit, so Cancel is race-free against the runner goroutine.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  State
	err    string
	result *Result
	cached bool
	done   int
	total  int
	subs   map[chan Event]struct{}
}

// Status is the JSON shape of GET /v1/jobs/{id}.
type Status struct {
	ID     string  `json:"id"`
	State  State   `json:"state"`
	Cached bool    `json:"cached"`
	Done   int     `json:"done"`
	Total  int     `json:"total"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// Status snapshots the job for the API. The result pointer is shared —
// results are immutable after completion.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, State: j.state, Cached: j.cached,
		Done: j.done, Total: j.total,
		Error: j.err, Result: j.result,
	}
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests cancellation. Terminal jobs are unaffected; queued
// jobs go terminal immediately, running jobs stop at the next replica
// chunk boundary and are marked canceled by their runner.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	if j.state == StateQueued {
		j.finishLocked(StateCanceled, nil, "")
	}
	j.mu.Unlock()
}

// Subscribe registers an event channel and returns it along with a
// synthetic catch-up of the job's current state, so late subscribers
// need no replay log. The caller must eventually Unsubscribe.
func (j *Job) Subscribe() (ch chan Event, catchUp []Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	catchUp = []Event{{Type: "state", Data: StateEvent{ID: j.ID, State: j.state, Error: j.err}}}
	if j.total > 0 {
		catchUp = append(catchUp, Event{Type: "progress", Data: ProgressEvent{Done: j.done, Total: j.total}})
	}
	if j.state.terminal() {
		// Closed channel: the stream handler emits its final frame from
		// Status and returns without waiting.
		ch = make(chan Event)
		close(ch)
		return ch, catchUp
	}
	ch = make(chan Event, subBuffer)
	j.subs[ch] = struct{}{}
	return ch, catchUp
}

// Unsubscribe removes a live subscription. Safe to call after the job
// went terminal (the channel is already closed and forgotten).
func (j *Job) Unsubscribe(ch chan Event) {
	j.mu.Lock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}

// publishLocked fans an event out to every subscriber, dropping frames
// for subscribers whose buffer is full (the terminal frame is recovered
// from Status by the stream handler, so drops only thin progress).
func (j *Job) publishLocked(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// setRunning transitions queued → running (a lost race with Cancel
// leaves the job canceled and reports false).
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.publishLocked(Event{Type: "state", Data: StateEvent{ID: j.ID, State: j.state}})
	return true
}

// setProgress records and publishes campaign progress.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	if done > j.done || total != j.total {
		j.done, j.total = done, total
		j.publishLocked(Event{Type: "progress", Data: ProgressEvent{Done: done, Total: total}})
	}
	j.mu.Unlock()
}

// snapshot publishes the running metrics window of the campaign's
// first replica.
func (j *Job) snapshot(m netspec.Metrics) {
	j.mu.Lock()
	if !j.state.terminal() {
		j.publishLocked(Event{Type: "snapshot", Data: m})
	}
	j.mu.Unlock()
}

// finish drives the job to a terminal state (idempotent: the first
// transition wins), publishes the terminal frame and closes every
// subscription.
func (j *Job) finish(state State, res *Result, errMsg string) {
	j.mu.Lock()
	j.finishLocked(state, res, errMsg)
	j.mu.Unlock()
}

func (j *Job) finishLocked(state State, res *Result, errMsg string) {
	if j.state.terminal() {
		return
	}
	j.state = state
	j.result = res
	j.err = errMsg
	if res != nil {
		j.done = j.total
	}
	j.publishLocked(Event{Type: "state", Data: StateEvent{ID: j.ID, State: state, Error: errMsg}})
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
	}
}
