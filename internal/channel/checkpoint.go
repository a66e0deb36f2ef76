package channel

// Checkpoint accessors. The channel itself is never captured
// wholesale: the quiescent-edge snapshot contract (see core.Snapshot)
// guarantees no transmission is in flight, tune states are rebuilt by
// the restored devices re-Tuning, and the spatial index is rebuilt from
// the world's placement layout. What must survive exactly is the noise
// RNG's stream position.

// InFlight reports how many transmissions still have a pending delivery
// event. Snapshot refuses to run unless this is zero — with packets on
// the air there is no quiescent edge to capture.
func (c *Channel) InFlight() int { return len(c.active) }

// RNGState returns the exact position of the channel's noise RNG stream
// (bit-error and jammer-duty draws) for a checkpoint.
func (c *Channel) RNGState() uint64 { return c.rng.State() }

// SetRNGState overwrites the noise RNG's stream position with a value
// previously returned by RNGState (optionally forked — see
// sim.ForkState).
func (c *Channel) SetRNGState(s uint64) { c.rng.SetState(s) }
