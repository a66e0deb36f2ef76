package netspec

import (
	"repro/internal/baseband"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/hop"
	"repro/internal/stats"
)

// OccupancySummary describes a time-weighted queue gauge over the
// measurement window.
type OccupancySummary struct {
	// Mean is the time-weighted mean depth.
	Mean float64 `json:"mean"`
	// Max is the absolute maximum depth observed.
	Max int `json:"max"`
}

// VoiceMetrics reports one SCO stream's window.
type VoiceMetrics struct {
	// Piconet and Slave (1-based) locate the stream.
	Piconet int `json:"piconet"`
	Slave   int `json:"slave"`
	// TxFrames and RxFrames count sent and arrived voice frames.
	TxFrames int `json:"tx_frames"`
	RxFrames int `json:"rx_frames"`
	// BitPerfect counts frames that arrived without any residual error
	// (the audio-quality proxy).
	BitPerfect int `json:"bit_perfect"`
}

// FlowMetrics reports one end-to-end flow's window.
type FlowMetrics struct {
	// From and To name the endpoints.
	From string `json:"from"`
	To   string `json:"to"`
	// SentBytes and DeliveredBytes count SDU payload.
	SentBytes      int `json:"sent_bytes"`
	DeliveredBytes int `json:"delivered_bytes"`
	// Latency samples end-to-end delivery latency in slots.
	Latency stats.Sample `json:"latency"`
}

// ProbeMetrics is one probe's sampled result: RF-activity fractions
// over the probe's devices.
type ProbeMetrics struct {
	Tx stats.Sample `json:"tx"`
	Rx stats.Sample `json:"rx"`
}

// Metrics is the unified result surface of a built world: one read
// covers goodput, latency samples, per-frequency channel stats and
// queue occupancy, whatever mix of stanzas produced them. Windows open
// at ResetMetrics and read (without closing) at Metrics.
type Metrics struct {
	// Slots is the measurement window length.
	Slots uint64 `json:"slots"`

	// Bytes is the payload total delivered on single-hop ACL links
	// (bulk and poisson traffic); PerPiconet breaks it down in build
	// order.
	Bytes      int   `json:"bytes"`
	PerPiconet []int `json:"per_piconet,omitempty"`
	// Retransmits sums the masters' ARQ retransmissions.
	Retransmits int `json:"retransmits"`
	// Inter and Intra are the attributed collision-pair counts.
	Inter int `json:"inter_collisions"`
	Intra int `json:"intra_collisions"`
	// MapUpdates sums adaptive channel-map installs over the world's
	// whole lifetime — unlike the window counters it is NOT zeroed by
	// ResetMetrics, so convergence stays visible across windows.
	MapUpdates int `json:"map_updates"`

	// EndToEndBytes is the SDU payload delivered at flow destinations;
	// E2ELatency samples its delivery latency in slots.
	EndToEndBytes int          `json:"end_to_end_bytes"`
	E2ELatency    stats.Sample `json:"e2e_latency"`
	// Flows breaks the end-to-end accounting down per flow.
	Flows []FlowMetrics `json:"flows,omitempty"`

	// ForwardedFrames and DroppedFrames count the bridges' relay work;
	// FwdLatency samples store-and-forward latency in slots.
	ForwardedFrames int          `json:"forwarded_frames"`
	DroppedFrames   int          `json:"dropped_frames"`
	FwdLatency      stats.Sample `json:"fwd_latency"`
	// Queue describes the pooled bridge backlog.
	Queue OccupancySummary `json:"queue"`
	// MembershipSwitches counts bridge radio retunes.
	MembershipSwitches int `json:"membership_switches"`
	// RouteMisses counts undeliverable frames (0 in a healthy net).
	RouteMisses int `json:"route_misses"`

	// Voice reports every SCO stream.
	Voice []VoiceMetrics `json:"voice,omitempty"`

	// PerFreq is the per-RF-channel stats delta over the window.
	PerFreq []channel.FreqCount `json:"per_freq,omitempty"`

	// Probes holds the named probe results.
	Probes map[string]ProbeMetrics `json:"probes,omitempty"`
}

// GoodputKbps is the window's total delivered payload — single-hop and
// end-to-end — as kbit/s.
func (m *Metrics) GoodputKbps() float64 {
	return GoodputKbps(m.Bytes+m.EndToEndBytes, m.Slots)
}

// PiconetGoodputKbps is piconet i's single-hop goodput as kbit/s.
func (m *Metrics) PiconetGoodputKbps(i int) float64 {
	return GoodputKbps(m.PerPiconet[i], m.Slots)
}

// WorstChannel returns the RF channel with the most collisions this
// window and its count (-1 if the air stayed clean).
func (m *Metrics) WorstChannel() (ch, collisions int) {
	best, worst := 0, -1
	for c := range m.PerFreq {
		if m.PerFreq[c].Collisions > best {
			best, worst = m.PerFreq[c].Collisions, c
		}
	}
	return worst, best
}

// GoodputKbps converts a delivered-byte count over a slot horizon into
// kbit/s (one slot = 625 µs).
func GoodputKbps(bytes int, slots uint64) float64 {
	if slots == 0 {
		return 0
	}
	return float64(bytes) * 8 / 1000 / (float64(slots) * 625e-6)
}

// ResetMetrics opens a fresh measurement window: delivery and latency
// accounting, collision attribution, bridge queue statistics and every
// device's protocol counters and RF-activity meters restart, and the
// per-frequency channel counters are snapshotted. Queued bridge frames
// stay queued — the backlog is state, not statistics — and the fresh
// queue gauge is seeded with the current depth. MapUpdates is lifetime
// and deliberately survives the reset.
func (w *World) ResetMetrics() {
	w.InterCollisions = 0
	w.IntraCollisions = 0
	w.DeliveredBytes = 0
	w.RouteMisses = 0
	w.E2ELatency = stats.Sample{}
	for _, f := range w.Flows {
		f.SentBytes, f.DeliveredBytes = 0, 0
		f.Latency = stats.Sample{}
	}
	now := w.Sim.Now()
	for _, b := range w.Bridges {
		b.QueueDepth = stats.Occupancy{}
		b.QueueDepth.Observe(b.depth(), now)
		b.FwdLatency = stats.Sample{}
		b.Forwarded = 0
		b.Dropped = 0
		b.Dev.Counters = baseband.Counters{}
		core.ResetMeters(b.Dev)
	}
	for _, p := range w.Piconets {
		for j := range p.Received {
			p.Received[j] = 0
		}
		p.Master.Counters = baseband.Counters{}
		core.ResetMeters(p.Master)
		for _, sl := range p.Slaves {
			sl.Counters = baseband.Counters{}
			core.ResetMeters(sl)
		}
	}
	for _, v := range w.Voices {
		v.baseTx = v.MasterSCO.TxFrames
		v.baseRx = v.SlaveSCO.RxFrames
		v.basePerfect = v.perfect
	}
	w.chBase = w.Sim.Ch.Stats()
	w.resetAt = now
}

// Metrics reads the current window without closing it.
func (w *World) Metrics() Metrics {
	now := w.Sim.Now()
	m := Metrics{
		Slots:         now - w.resetAt,
		Inter:         w.InterCollisions,
		Intra:         w.IntraCollisions,
		EndToEndBytes: w.DeliveredBytes,
		RouteMisses:   w.RouteMisses,
		PerFreq:       w.perFreqDelta(),
	}
	m.E2ELatency.Merge(&w.E2ELatency)
	for _, p := range w.Piconets {
		sum := 0
		for _, r := range p.Received {
			sum += r
		}
		m.PerPiconet = append(m.PerPiconet, sum)
		m.Bytes += sum
		m.Retransmits += p.Master.Counters.Retransmits
		m.MapUpdates += p.MapUpdates
	}
	for _, f := range w.Flows {
		fm := FlowMetrics{
			From: f.From, To: f.To,
			SentBytes: f.SentBytes, DeliveredBytes: f.DeliveredBytes,
		}
		fm.Latency.Merge(&f.Latency)
		m.Flows = append(m.Flows, fm)
	}
	var q stats.Occupancy
	for _, b := range w.Bridges {
		m.ForwardedFrames += b.Forwarded
		m.DroppedFrames += b.Dropped
		m.MembershipSwitches += b.Dev.Counters.MembershipSwitches
		qc := b.QueueDepth // copy; Finish must not disturb the live gauge
		qc.Finish(now)
		q.Merge(&qc)
		m.FwdLatency.Merge(&b.FwdLatency)
	}
	m.Queue = OccupancySummary{Mean: q.Mean(), Max: q.Max}
	for _, v := range w.Voices {
		m.Voice = append(m.Voice, VoiceMetrics{
			Piconet: v.Piconet, Slave: v.Slave,
			TxFrames: v.TxFrames(), RxFrames: v.RxFrames(), BitPerfect: v.BitPerfect(),
		})
	}
	if len(w.spec.Probes) > 0 {
		m.Probes = make(map[string]ProbeMetrics, len(w.spec.Probes))
		for i := range w.spec.Probes {
			p := &w.spec.Probes[i]
			m.Probes[p.Name] = w.probe(p)
		}
	}
	return m
}

// perFreqDelta is the per-RF-channel stats change since ResetMetrics.
func (w *World) perFreqDelta() []channel.FreqCount {
	cur := w.Sim.Ch.Stats()
	out := make([]channel.FreqCount, hop.NumChannels)
	for ch := range out {
		a, b := cur.PerFreq[ch], w.chBase.PerFreq[ch]
		out[ch] = channel.FreqCount{
			Transmissions: a.Transmissions - b.Transmissions,
			Deliveries:    a.Deliveries - b.Deliveries,
			Collisions:    a.Collisions - b.Collisions,
			Jammed:        a.Jammed - b.Jammed,
		}
	}
	return out
}

// probe evaluates one probe stanza.
func (w *World) probe(p *Probe) ProbeMetrics {
	var pm ProbeMetrics
	switch p.Kind {
	case ProbeBridgeActivity:
		for _, b := range w.Bridges {
			tx, rx := core.Activity(b.Dev)
			pm.Tx.Add(tx)
			pm.Rx.Add(rx)
		}
	case ProbeSlaveActivity, ProbeMasterActivity:
		for _, pc := range w.Piconets {
			if p.Piconet != AllPiconets && p.Piconet != pc.Index {
				continue
			}
			if p.Kind == ProbeMasterActivity {
				tx, rx := core.Activity(pc.Master)
				pm.Tx.Add(tx)
				pm.Rx.Add(rx)
				continue
			}
			for _, sl := range pc.Slaves {
				tx, rx := core.Activity(sl)
				pm.Tx.Add(tx)
				pm.Rx.Add(rx)
			}
		}
	}
	return pm
}
