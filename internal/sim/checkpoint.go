package sim

import "sort"

// Checkpoint support: the kernel itself is never captured. A snapshot
// instead captures, per layer, every pending event's (at, seq) pair via
// EventInfo/Timer.Pending, and a restore re-schedules the same
// callbacks on a fresh kernel. Correctness rests on the re-arm
// ordering theorem: every event pending at snapshot time S carries a
// sequence number smaller than any event scheduled after S (seq is a
// single monotonic kernel-global counter), so re-arming the captured
// events in ascending original (at, seq) order hands them fresh
// sequence numbers that preserve every relative ordering — among each
// other and against all post-restore scheduling.
//
// RearmSet is the cross-layer half of that theorem. Same-instant events
// owned by different layers (a netspec traffic pump and the baseband
// slot timer it feeds, say) must interleave exactly as they did in the
// original run, so each layer appends its captured arms here and one
// Execute call replays the global sorted order.

// Rearm is one captured pending event: its original (At, Seq) position
// in the global order and an Arm closure that re-schedules it (via
// Timer.AtFn or Kernel.At).
type Rearm struct {
	At  Time
	Seq uint64
	Arm func()
}

// RearmSet accumulates captured pending events across layers during a
// restore and replays them in the original global order.
type RearmSet struct {
	rearms []Rearm
}

// Add appends one captured event. Order of Add calls is irrelevant;
// Execute sorts.
func (s *RearmSet) Add(at Time, seq uint64, arm func()) {
	s.rearms = append(s.rearms, Rearm{At: at, Seq: seq, Arm: arm})
}

// Len reports how many captured events are waiting to be re-armed.
func (s *RearmSet) Len() int { return len(s.rearms) }

// Execute re-arms every captured event in ascending original (At, Seq)
// order — (At, Seq) pairs are unique, so the order is total — then
// empties the set. Arm closures run with the restored kernel's clock
// already at the snapshot instant, so scheduling at the original
// absolute time is always legal.
func (s *RearmSet) Execute() {
	sort.Slice(s.rearms, func(i, j int) bool {
		if s.rearms[i].At != s.rearms[j].At {
			return s.rearms[i].At < s.rearms[j].At
		}
		return s.rearms[i].Seq < s.rearms[j].Seq
	})
	for i := range s.rearms {
		s.rearms[i].Arm()
	}
	s.rearms = s.rearms[:0]
}
