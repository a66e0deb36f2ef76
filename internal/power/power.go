// Package power measures RF activity — the fraction of wall-clock time a
// device's transmitter and receiver chains are enabled — which is the
// quantity the paper's Figs 10-12 plot, and converts it to average power
// with a simple front-end model. The link controller toggles the meters
// exactly when it raises/lowers the enable_tx_RF / enable_rx_RF signals,
// so activity here is the integral of the waveforms in Figs 5 and 9.
package power

import "repro/internal/sim"

// Meter integrates the on-time of one RF chain (TX or RX).
type Meter struct {
	k       *sim.Kernel
	on      bool
	since   sim.Time
	total   sim.Duration
	starts  int
	started sim.Time // measurement window start
}

// NewMeter returns a meter with its measurement window opening now.
func NewMeter(k *sim.Kernel) *Meter {
	return &Meter{k: k, started: k.Now()}
}

// Set switches the chain on or off. Redundant sets are ignored.
func (m *Meter) Set(on bool) {
	if on == m.on {
		return
	}
	now := m.k.Now()
	if on {
		m.since = now
		m.starts++
	} else {
		m.total += sim.Duration(now - m.since)
	}
	m.on = on
}

// On reports the current chain state.
func (m *Meter) On() bool { return m.on }

// OnTime returns the accumulated on-duration including a currently open
// interval.
func (m *Meter) OnTime() sim.Duration {
	t := m.total
	if m.on {
		t += sim.Duration(m.k.Now() - m.since)
	}
	return t
}

// Activations counts off→on transitions (wake-up events cost energy in
// real front ends; the ablation benches report them).
func (m *Meter) Activations() int { return m.starts }

// Activity returns the on-time fraction of the window since the meter
// (or the last Reset) started. It is 0 when no time has elapsed.
func (m *Meter) Activity() float64 {
	elapsed := m.k.Now() - m.started
	if elapsed == 0 {
		return 0
	}
	return float64(m.OnTime()) / float64(elapsed)
}

// Reset restarts the measurement window now, preserving the chain state.
func (m *Meter) Reset() {
	m.total = 0
	m.starts = 0
	m.started = m.k.Now()
	if m.on {
		m.since = m.k.Now()
		m.starts = 1
	}
}

// MeterState is the checkpoint image of a Meter: its chain state. Window
// accumulators (on-time, activations, window start) are deliberately
// absent — every forked arm re-opens its measurement window with Reset
// immediately after restore, exactly as the straight-through run does,
// so only the state that shapes *future* accounting needs to survive.
type MeterState struct {
	On bool
}

// CheckpointState returns the meter's checkpoint image.
func (m *Meter) CheckpointState() MeterState { return MeterState{On: m.on} }

// RestoreState imposes a checkpointed image on a meter whose kernel
// clock stands at the snapshot instant. An open interval restarts at
// now — the same normalization Reset applies on the straight-through
// arm, so post-restore accounting matches it exactly.
func (m *Meter) RestoreState(st MeterState) {
	now := m.k.Now()
	m.on = st.On
	m.since = now
	m.total = 0
	m.started = now
	m.starts = 0
	if m.on {
		m.starts = 1
	}
}

// Profile is a simple RF front-end power model: static currents while a
// chain is enabled. Defaults are representative of the 0.18 µm CMOS
// radios the paper cites (tens of mW per active chain).
type Profile struct {
	TxMW    float64 // power while the transmitter is on
	RxMW    float64 // power while the receiver is on
	SleepMW float64 // residual power when both chains are off
}

// DefaultProfile mirrors the van Zeijl et al. radio the paper references:
// ~30 mW TX, ~33 mW RX, ~0.1 mW sleep.
func DefaultProfile() Profile { return Profile{TxMW: 30, RxMW: 33, SleepMW: 0.1} }

// Average computes the mean power over the measurement window given the
// two chain meters.
func (p Profile) Average(tx, rx *Meter) float64 {
	return p.TxMW*tx.Activity() + p.RxMW*rx.Activity() + p.SleepMW
}
