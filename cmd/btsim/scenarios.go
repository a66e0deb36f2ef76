package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hop"
	"repro/internal/netspec"
	"repro/internal/packet"
	"repro/internal/stats"
)

// trialParams carries the scenario knobs into one run or replica.
type trialParams struct {
	slaves       int
	ber          float64
	seed         uint64
	slots        uint64
	tsniff       int
	thold        int
	piconets     int     // coex/mixed scenarios: co-located piconets
	assessWindow int     // afh-adaptive: classification window in slots
	jamDuty      float64 // afh-adaptive: jammer duty cycle
	jamWidth     int     // afh-adaptive: jammed channels starting at 30
	bridges      int     // scatternet: bridge count (piconets = bridges+1)
	presence     float64 // scatternet/mesh: bridge presence duty cycle
}

// trialOutcome is the mergeable result of one scenario run: named
// outcome counters, the per-device RF-activity observations, and the
// first panic message if the replica crashed.
type trialOutcome struct {
	Out    stats.CounterMap
	Tx, Rx stats.Sample
	Panic  string
}

func (a *trialOutcome) merge(b *trialOutcome) {
	if a.Out == nil {
		a.Out = stats.CounterMap{}
	}
	a.Out.Merge(b.Out)
	a.Tx.Merge(&b.Tx)
	a.Rx.Merge(&b.Rx)
	if a.Panic == "" {
		a.Panic = b.Panic
	}
}

// scenarioInfo registers one -scenario value with the one-line summary
// the usage text prints.
type scenarioInfo struct {
	name    string
	summary string
}

// scenarioRegistry is the single source of truth for the scenario list:
// the -scenario flag help, the full usage text and the validator all
// derive from it (the README scenario table mirrors it). Keep an entry
// here for every case runScenario handles; TestScenarioRegistryRuns
// executes each one, so a registered scenario cannot rot.
var scenarioRegistry = []scenarioInfo{
	{"creation", "master + N slaves create a piconet (paper Fig 5)"},
	{"discovery", "inquiry finds the neighbours under noise (paper Fig 6)"},
	{"sniff", "slaves enter sniff mode, -tsniff anchors (paper Fig 9)"},
	{"hold", "slaves cycle repeating hold, -thold slots (paper Fig 12)"},
	{"park", "slaves parked on the 64-slot beacon channel"},
	{"transfer", "bulk DM3 transfer to every slave, ARQ vs -ber"},
	{"coex", "-piconets co-located piconets colliding on one medium"},
	{"coex2", "two co-located piconets"},
	{"coex4", "four co-located piconets"},
	{"afh-adaptive", "one piconet learns its AFH map under a -jam-duty jammer"},
	{"scatternet", "-bridges bridges chain -bridges+1 piconets, L2CAP forwarded end to end"},
	{"mixed", "-piconets piconets share the medium: SCO voice on the first, bulk ACL on the rest"},
	{"mesh", "3-piconet scatternet with crossing end-to-end flows in both directions"},
	{"dense", "-piconets piconets on a spatial office grid: path-loss range model, spatial band reuse"},
}

// validScenario reports whether name is registered.
func validScenario(name string) bool {
	for _, s := range scenarioRegistry {
		if s.name == name {
			return true
		}
	}
	return false
}

// scenarioList renders the registered names for the -scenario flag help.
func scenarioList() string {
	names := make([]string, len(scenarioRegistry))
	for i, s := range scenarioRegistry {
		names[i] = s.name
	}
	return strings.Join(names, " | ")
}

// scenarioUsage renders the per-scenario summaries for the usage text.
func scenarioUsage() string {
	var sb strings.Builder
	sb.WriteString("Scenarios:\n")
	for _, s := range scenarioRegistry {
		fmt.Fprintf(&sb, "  %-13s %s\n", s.name, s.summary)
	}
	return sb.String()
}

// slaveProbe is the activity probe every piconet-scenario spec carries
// so the replica campaigns can fold slave RF activity.
var slaveProbe = netspec.Probe{Name: "slaves", Kind: netspec.ProbeSlaveActivity, Piconet: netspec.AllPiconets}

// bridgeProbe samples the bridges of the relay scenarios.
var bridgeProbe = netspec.Probe{Name: "bridges", Kind: netspec.ProbeBridgeActivity}

// buildSpec compiles one scenario's world description. Every scenario
// is a netspec.Spec literal plus the flag overrides in p — adding one
// means adding a case here and a registry entry above.
func buildSpec(scenario string, p trialParams) netspec.Spec {
	switch scenario {
	case "creation", "transfer":
		return netspec.Spec{
			Piconets: []netspec.Piconet{{Slaves: p.slaves, R1PageScan: true}},
			Probes:   []netspec.Probe{slaveProbe},
		}
	case "discovery":
		return netspec.Spec{
			Piconets: []netspec.Piconet{{Slaves: p.slaves, Detached: true, R1PageScan: true}},
			Probes:   []netspec.Probe{slaveProbe},
		}
	case "sniff":
		// First slave stays active (as in Fig 9), the rest sniff.
		var modes []netspec.PowerMode
		first := 2
		if p.slaves == 1 {
			first = 1
		}
		for j := first; j <= p.slaves; j++ {
			modes = append(modes, netspec.PowerMode{
				Kind: netspec.SniffMode, Slave: j, TsniffSlots: p.tsniff,
			})
		}
		return netspec.Spec{
			Piconets: []netspec.Piconet{{Slaves: p.slaves, R1PageScan: true}},
			Modes:    modes,
			Probes:   []netspec.Probe{slaveProbe},
		}
	case "hold":
		return netspec.Spec{
			Piconets: []netspec.Piconet{{Slaves: p.slaves, R1PageScan: true}},
			Modes:    []netspec.PowerMode{{Kind: netspec.HoldMode, TholdSlots: p.thold}},
			Probes:   []netspec.Probe{slaveProbe},
		}
	case "park":
		return netspec.Spec{
			Piconets: []netspec.Piconet{{Slaves: p.slaves, R1PageScan: true}},
			Modes:    []netspec.PowerMode{{Kind: netspec.ParkMode, BeaconSlots: 64}},
			Probes:   []netspec.Probe{slaveProbe},
		}
	case "coex", "coex2", "coex4":
		piconets := map[string]int{"coex2": 2, "coex4": 4}[scenario]
		if piconets == 0 {
			piconets = p.piconets
		}
		return netspec.Spec{
			Piconets: slices.Repeat([]netspec.Piconet{{Slaves: p.slaves, TpollSlots: netspec.TpollNever}}, piconets),
			Traffic:  []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
			Probes:   []netspec.Probe{slaveProbe},
		}
	case "afh-adaptive":
		lo, hi := jamBand(p)
		return netspec.Spec{
			Piconets: []netspec.Piconet{{
				Slaves: p.slaves, TpollSlots: netspec.TpollNever,
				AFH: netspec.AFHAdaptive, AssessWindowSlots: p.assessWindow,
			}},
			Traffic: []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
			Jammers: []netspec.Jammer{{Lo: lo, Hi: hi, Duty: p.jamDuty}},
			Probes:  []netspec.Probe{slaveProbe},
		}
	case "scatternet":
		piconets := p.bridges + 1
		return netspec.Spec{
			Piconets: slices.Repeat([]netspec.Piconet{{Slaves: chainSlaves(p.slaves, piconets)}}, piconets),
			Bridges:  netspec.ChainBridges(piconets, netspec.Bridge{PresenceDuty: p.presence}),
			Traffic: []netspec.Traffic{
				{Kind: netspec.TrafficFlow, From: netspec.MasterName(0), To: netspec.SlaveName(piconets-1, 1)},
			},
			Probes: []netspec.Probe{bridgeProbe},
		}
	case "mixed":
		piconets := p.piconets // validateParams pins >= 2 for mixed
		// HV3 reserves one even slot in three, so at most three voice
		// streams interleave on the first piconet.
		pics := []netspec.Piconet{{Slaves: min(p.slaves, 3)}}
		traffic := []netspec.Traffic{{Kind: netspec.TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3}}
		for i := 1; i < piconets; i++ {
			pics = append(pics, netspec.Piconet{Slaves: p.slaves, TpollSlots: netspec.TpollNever})
			traffic = append(traffic, netspec.Traffic{Kind: netspec.TrafficBulk, Piconet: i})
		}
		return netspec.Spec{Piconets: pics, Traffic: traffic, Probes: []netspec.Probe{slaveProbe}}
	case "dense":
		spec := experiments.DensitySpec(p.piconets)
		spec.Probes = []netspec.Probe{slaveProbe}
		return spec
	case "mesh":
		return netspec.Spec{
			Piconets: slices.Repeat([]netspec.Piconet{{Slaves: chainSlaves(p.slaves, 3)}}, 3),
			Bridges:  netspec.ChainBridges(3, netspec.Bridge{PresenceDuty: p.presence}),
			Traffic: []netspec.Traffic{
				{Kind: netspec.TrafficFlow, From: netspec.MasterName(0), To: netspec.SlaveName(2, 1)},
				{Kind: netspec.TrafficFlow, From: netspec.MasterName(2), To: netspec.SlaveName(0, 1)},
			},
			Probes: []netspec.Probe{bridgeProbe},
		}
	}
	panic(fmt.Sprintf("unknown scenario %q", scenario))
}

// chainSlaves clamps the slave count so a chain master can host its
// slaves plus one bridge (chain ends) or two (middle masters) within
// the 7 active members a piconet supports.
func chainSlaves(slaves, piconets int) int {
	maxSlaves := 6
	if piconets > 2 {
		maxSlaves = 5
	}
	return min(slaves, maxSlaves)
}

// jamBand resolves the afh-adaptive jammer band from the flags.
func jamBand(p trialParams) (lo, hi int) {
	lo = 30
	hi = lo + max(p.jamWidth, 1) - 1
	if hi >= hop.NumChannels {
		hi = hop.NumChannels - 1
	}
	return lo, hi
}

// runScenario drives one scenario on its own simulation world: compile
// the spec, build, start traffic, run the measurement window, read the
// unified metrics. logf receives the narrative a single interactive
// run prints (nil for the silent replicas of a -trials campaign); the
// returned outcome carries the statistics either way. Setup failures
// under heavy noise panic, as BuildPiconet does — the -trials path
// recovers per replica, a single run crashes loudly.
func runScenario(scenario string, seed uint64, p trialParams, trace io.Writer, logf func(string, ...any)) (*core.Simulation, trialOutcome) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var out trialOutcome
	out.Out = stats.CounterMap{}

	s := core.NewSimulation(core.Options{Seed: seed, BER: p.ber, TraceTo: trace})
	w, err := netspec.Build(s, buildSpec(scenario, p))
	if err != nil {
		panic(fmt.Sprintf("btsim: %v", err))
	}
	out.Out.Observe("setup_ok", true)

	var m *netspec.Metrics
	switch scenario {
	case "discovery":
		runDiscovery(w, p, logf, &out)
	case "creation":
		pic := w.Piconets[0]
		logf("built piconet: master + %d slaves (paper Fig 5 scenario)\n", len(pic.Slaves))
		for _, l := range pic.Links {
			logf("  connected %v as AM_ADDR %d by slot %d\n", l.Peer, l.AMAddr, s.Now())
		}
		pic.Links[0].Send([]byte("hello piconet"), packet.LLIDL2CAPStart)
		s.RunSlots(p.slots)
	case "sniff":
		logf("piconet up; putting %d slave(s) into SNIFF (Tsniff=%d slots) — paper Fig 9\n",
			max(p.slaves-1, 1), p.tsniff)
		w.ResetMetrics()
		s.RunSlots(p.slots)
	case "hold":
		logf("piconet up; slaves entering repeating HOLD (Thold=%d slots) — paper Fig 12 workload\n", p.thold)
		w.ResetMetrics()
		s.RunSlots(p.slots)
	case "park":
		logf("piconet up; parking every slave (beacon every 64 slots)\n")
		w.ResetMetrics()
		s.RunSlots(p.slots)
	case "transfer":
		m = runTransfer(w, p, logf, &out)
	case "coex", "coex2", "coex4":
		m = runCoex(w, p, logf, &out)
	case "afh-adaptive":
		m = runAdaptive(w, p, logf, &out)
	case "scatternet":
		m = runChain(w, p, logf, &out, true)
	case "mixed":
		m = runMixed(w, p, logf, &out)
	case "dense":
		m = runDense(w, p, logf, &out)
	case "mesh":
		m = runChain(w, p, logf, &out, false)
	}

	if m == nil {
		mm := w.Metrics()
		m = &mm
	}
	addActivity(m, &out)
	return s, out
}

// runDiscovery drives the inquiry procedure over the detached world.
func runDiscovery(w *netspec.World, p trialParams, logf func(string, ...any), out *trialOutcome) {
	pic := w.Piconets[0]
	for _, d := range pic.Slaves {
		d.StartInquiryScan()
	}
	logf("master entering INQUIRY; slaves in INQUIRY SCAN\n")
	found := 0
	pic.Master.StartInquiry(4096, len(pic.Slaves), func(rs []baseband.InquiryResult, ok bool) {
		logf("inquiry complete after %d slots: %d device(s) found (ok=%v)\n",
			pic.Master.InquirySlots(), len(rs), ok)
		for _, r := range rs {
			logf("  found %v class=%06X clkn=%d\n", r.Addr, r.Class, r.CLKN)
		}
		found = len(rs)
		out.Out.Observe("inquiry_ok", ok)
	})
	w.Sim.RunSlots(5000)
	out.Out.Observe("all_found", found == len(pic.Slaves))
}

// runTransfer pushes one DM3 bulk chunk to every slave and verifies
// arrival through the metrics surface.
func runTransfer(w *netspec.World, p trialParams, logf func(string, ...any), out *trialOutcome) *netspec.Metrics {
	pic := w.Piconets[0]
	const chunk = 1024
	for _, l := range pic.Links {
		l.PacketType = packet.TypeDM3
		l.Send(make([]byte, chunk), packet.LLIDL2CAPStart)
	}
	logf("piconet up; sending %d bytes to each of %d slaves (DM3, BER from -ber)\n", chunk, len(pic.Links))
	w.Sim.RunSlots(p.slots)
	m := w.Metrics()
	logf("delivered %d/%d bytes; master retransmissions: %d\n",
		m.Bytes, chunk*len(pic.Links), m.Retransmits)
	out.Out.Observe("all_delivered", m.Bytes == chunk*len(pic.Links))
	return &m
}

// runCoex drives the co-located-piconet scenarios and reports
// per-piconet goodput plus the attributed collision counts.
func runCoex(w *netspec.World, p trialParams, logf func(string, ...any), out *trialOutcome) *netspec.Metrics {
	logf("built %d piconets (1 master + %d slave(s) each) on one shared 79-channel medium\n",
		len(w.Piconets), len(w.Piconets[0].Slaves))
	w.Start()
	w.Sim.RunSlots(64)
	w.ResetMetrics()
	w.Sim.RunSlots(p.slots)
	m := w.Metrics()
	for i := range w.Piconets {
		logf("  piconet %d: %.1f kbps goodput\n", i, m.PiconetGoodputKbps(i))
	}
	logf("collisions over %d slots: %d inter-piconet, %d intra-piconet; %d master retransmissions\n",
		m.Slots, m.Inter, m.Intra, m.Retransmits)
	if ch, count := m.WorstChannel(); ch >= 0 {
		logf("most-collided RF channel this window: %d (%d collisions)\n", ch, count)
	}
	delivered := true
	for _, b := range m.PerPiconet {
		delivered = delivered && b > 0
	}
	out.Out.Observe("all_piconets_delivered", delivered)
	out.Out.Observe("inter_collisions_seen", m.Inter > 0)
	return &m
}

// runAdaptive runs one piconet under an 802.11-style jammer with
// adaptive channel classification enabled and reports the learned map
// against the known jammed band.
func runAdaptive(w *netspec.World, p trialParams, logf func(string, ...any), out *trialOutcome) *netspec.Metrics {
	lo, hi := jamBand(p)
	logf("piconet up under a %d-channel jammer (channels %d-%d, duty %.0f%%); assessing every %d slots\n",
		hi-lo+1, lo, hi, p.jamDuty*100, p.assessWindow)
	w.Start()
	w.Sim.RunSlots(netspec.ConvergenceSlots(p.assessWindow))
	w.ResetMetrics()
	w.Sim.RunSlots(p.slots)
	pic := w.Piconets[0]
	cm := pic.CurrentMap()
	excluded := 0
	if cm != nil {
		for ch := lo; ch <= hi; ch++ {
			if !cm.Used(ch) {
				excluded++
			}
		}
		logf("learned channel map after %d update(s): %d/%d channels in use, %d/%d jammed channels excluded\n",
			pic.MapUpdates, cm.N(), hop.NumChannels, excluded, hi-lo+1)
	} else {
		logf("classifier never narrowed the hop set (%d updates)\n", pic.MapUpdates)
	}
	m := w.Metrics()
	logf("goodput over the %d-slot measurement window: %.1f kbps\n", m.Slots, m.GoodputKbps())
	out.Out.Observe("map_installed", cm != nil)
	out.Out.Observe("jam_band_excluded", cm != nil && excluded >= (hi-lo+1)*8/10)
	return &m
}

// runChain drives the bridged scenarios (scatternet chain and mesh
// cross-traffic) and reports the relay statistics; chain additionally
// narrates the single canonical flow.
func runChain(w *netspec.World, p trialParams, logf func(string, ...any), out *trialOutcome, chain bool) *netspec.Metrics {
	logf("built a %d-piconet chain (1 master + %d slave(s) each) joined by %d bridge(s); presence duty %.0f%%, period %d slots\n",
		len(w.Piconets), len(w.Piconets[0].Slaves), len(w.Bridges), p.presence*100, 256)
	w.Start()
	for _, f := range w.Flows {
		logf("flow: %s -> %s, store-and-forward through every bridge\n", f.From, f.To)
	}
	w.Sim.RunSlots(uint64(3 * 256))
	w.ResetMetrics()
	w.Sim.RunSlots(p.slots)
	m := w.Metrics()
	logf("delivered %d bytes end-to-end over %d slots (%.1f kbps goodput)\n",
		m.EndToEndBytes, m.Slots, m.GoodputKbps())
	for _, f := range m.Flows {
		logf("  %s -> %s: %d bytes, mean latency %.0f slots\n",
			f.From, f.To, f.DeliveredBytes, f.Latency.Mean())
	}
	logf("bridges forwarded %d frame(s), dropped %d; store-and-forward latency %.0f slots mean\n",
		m.ForwardedFrames, m.DroppedFrames, m.FwdLatency.Mean())
	logf("bridge queue depth: %.1f mean (time-weighted), %d max; %d membership retunes\n",
		m.Queue.Mean, m.Queue.Max, m.MembershipSwitches)
	if chain {
		out.Out.Observe("delivered_across_piconets", m.EndToEndBytes > 0)
	} else {
		delivered := true
		for _, f := range m.Flows {
			delivered = delivered && f.DeliveredBytes > 0
		}
		out.Out.Observe("both_flows_delivered", delivered)
	}
	out.Out.Observe("no_route_misses", m.RouteMisses == 0)
	out.Out.Observe("radio_timeshared", m.MembershipSwitches > 0)
	return &m
}

// runDense drives the spatial office-floor scenario: piconets on a
// grid, delivery and interference governed by the path-loss range
// model. Unlike coex, piconets far enough apart here reuse the band
// instead of colliding.
func runDense(w *netspec.World, p trialParams, logf func(string, ...any), out *trialOutcome) *netspec.Metrics {
	logf("built %d piconets on a spatial office grid: %gm pitch, %gm delivery range, %gm interference reach\n",
		len(w.Piconets), float64(experiments.DensitySpacingM), float64(experiments.DensityRangeM),
		float64(experiments.DensityInterferenceM))
	if pos, ok := w.Sim.Ch.PositionOf(netspec.MasterName(len(w.Piconets) - 1)); ok {
		logf("last master sits at (%.0f, %.0f) m\n", pos.X, pos.Y)
	}
	w.Start()
	w.Sim.RunSlots(64)
	w.ResetMetrics()
	w.Sim.RunSlots(p.slots)
	m := w.Metrics()
	total := 0.0
	for i := range w.Piconets {
		total += m.PiconetGoodputKbps(i)
	}
	logf("aggregate goodput %.1f kbps (%.1f kbps per link); collisions: %d inter-piconet, %d intra-piconet\n",
		total, total/float64(len(w.Piconets)), m.Inter, m.Intra)
	delivered := true
	for _, b := range m.PerPiconet {
		delivered = delivered && b > 0
	}
	out.Out.Observe("spatial_medium", w.Sim.Ch.Spatial())
	out.Out.Observe("all_piconets_delivered", delivered)
	return &m
}

// runMixed drives voice and bulk piconets on one medium and reports
// both service classes from the one metrics read.
func runMixed(w *netspec.World, p trialParams, logf func(string, ...any), out *trialOutcome) *netspec.Metrics {
	logf("built %d piconets on one medium: piconet 0 carries HV3 voice to %d slave(s), the rest pump bulk ACL\n",
		len(w.Piconets), len(w.Piconets[0].Slaves))
	w.Start()
	w.Sim.RunSlots(64)
	w.ResetMetrics()
	w.Sim.RunSlots(p.slots)
	m := w.Metrics()
	voiceOK := len(m.Voice) > 0
	for _, v := range m.Voice {
		rate, clean := 0.0, 0.0
		if v.TxFrames > 0 {
			rate = float64(v.RxFrames) / float64(v.TxFrames)
			clean = float64(v.BitPerfect) / float64(v.TxFrames)
		}
		logf("  voice p%d.slave%d: %d/%d frames delivered (%.1f%%), %.1f%% bit-perfect\n",
			v.Piconet, v.Slave, v.RxFrames, v.TxFrames, rate*100, clean*100)
		voiceOK = voiceOK && v.RxFrames > 0
	}
	bulkOK := true
	for i := 1; i < len(w.Piconets); i++ {
		logf("  bulk  piconet %d: %.1f kbps goodput\n", i, m.PiconetGoodputKbps(i))
		bulkOK = bulkOK && m.PerPiconet[i] > 0
	}
	logf("collisions over %d slots: %d inter-piconet, %d intra-piconet\n", m.Slots, m.Inter, m.Intra)
	out.Out.Observe("voice_delivered", voiceOK)
	out.Out.Observe("bulk_delivered", bulkOK)
	out.Out.Observe("inter_collisions_seen", m.Inter > 0)
	return &m
}

// addActivity folds the world's activity probes into the outcome,
// reusing the metrics the scenario runner already read.
func addActivity(m *netspec.Metrics, out *trialOutcome) {
	for _, name := range []string{"slaves", "bridges"} {
		if pm, ok := m.Probes[name]; ok {
			out.Tx.Merge(&pm.Tx)
			out.Rx.Merge(&pm.Rx)
		}
	}
}

// validateParams rejects flag values that would wrap or hang a run
// (negative windows convert to huge uint64 horizons) or that the
// scenario cannot honour.
func validateParams(scenario string, p trialParams) error {
	if p.slaves < 1 || p.slaves > 7 {
		return fmt.Errorf("-slaves must be in 1..7, got %d", p.slaves)
	}
	if scenario == "mixed" && p.piconets < 2 {
		return fmt.Errorf("-scenario mixed needs -piconets >= 2 (voice + at least one bulk piconet), got %d", p.piconets)
	}
	if p.assessWindow < 1 {
		return fmt.Errorf("-assess-window must be >= 1, got %d", p.assessWindow)
	}
	if p.piconets < 1 {
		return fmt.Errorf("-piconets must be >= 1, got %d", p.piconets)
	}
	if p.jamWidth < 1 || p.jamWidth > hop.NumChannels {
		return fmt.Errorf("-jam-width must be in 1..%d, got %d", hop.NumChannels, p.jamWidth)
	}
	if p.jamDuty < 0 || p.jamDuty > 1 {
		return fmt.Errorf("-jam-duty must be in 0..1, got %g", p.jamDuty)
	}
	if p.tsniff < 1 || p.thold < 1 {
		return fmt.Errorf("-tsniff and -thold must be >= 1, got %d and %d", p.tsniff, p.thold)
	}
	if p.bridges < 1 || p.bridges > 6 {
		return fmt.Errorf("-bridges must be in 1..6, got %d", p.bridges)
	}
	if p.presence <= 0 || p.presence > 1 {
		return fmt.Errorf("-presence must be in (0,1], got %g", p.presence)
	}
	return nil
}

// validateTrace refuses -vcd for worlds the tracer cannot record:
// netspec.Build runs the kernel between piconets, and a traced
// simulation must have every device before it runs.
func validateTrace(scenario string, p trialParams) error {
	if n := len(buildSpec(scenario, p).Piconets); n > 1 {
		return fmt.Errorf("-vcd traces single-piconet worlds only; -scenario %s builds %d piconets", scenario, n)
	}
	return nil
}
