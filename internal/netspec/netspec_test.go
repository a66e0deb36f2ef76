package netspec

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// world builds a spec on a fresh simulation, failing the test on a
// validation error.
func world(t *testing.T, seed uint64, spec Spec) *World {
	t.Helper()
	w, err := Build(core.NewSimulation(core.Options{Seed: seed}), spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w
}

// TestValidationNamesOffendingStanza pins the validation contract:
// every malformed stanza comes back as a *StanzaError naming the
// stanza kind and index, with a message that says what is wrong.
func TestValidationNamesOffendingStanza(t *testing.T) {
	onePiconet := []Piconet{{Slaves: 1}}
	cases := []struct {
		name    string
		spec    Spec
		stanza  string
		index   int
		message string
	}{
		{"zero slaves", Spec{Piconets: []Piconet{{}}}, "piconet", 0, "at least 1 slave"},
		{"eight slaves", Spec{Piconets: []Piconet{{Slaves: 8}}}, "piconet", 0, "7 active members"},
		{"oracle band unset", Spec{Piconets: []Piconet{{Slaves: 1, AFH: AFHOracle, OracleLo: 0, OracleHi: 0}}},
			"piconet", 0, "OracleLo/OracleHi"},
		{"bridge unknown piconet", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 5}},
		}, "bridge", 0, "unknown piconet 5"},
		{"bridge self loop", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 1, B: 1}},
		}, "bridge", 0, "itself"},
		{"bridge over capacity", Spec{
			Piconets: []Piconet{{Slaves: 7}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1}},
		}, "piconet", 0, "7 active members"},
		{"bridge to detached", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1, Detached: true}},
			Bridges:  []Bridge{{A: 0, B: 1}},
		}, "bridge", 0, "detached"},
		{"overlapping SCO", Spec{
			Piconets: onePiconet,
			Traffic: []Traffic{
				{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3},
				{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3, TscoSlots: 12, DscoEven: 0}, // period 6, offset 0 ≡ 0 mod 3
			},
		}, "traffic", 1, "overlaps traffic[0]"},
		{"aliasing SCO offset", Spec{
			Piconets: onePiconet,
			Traffic: []Traffic{
				{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3, TscoSlots: 6, DscoEven: 3}, // 3 aliases 0 mod Tsco/2
			},
		}, "traffic", 0, "Dsco 3 outside"},
		{"duplicate ACL pump", Spec{
			Piconets: []Piconet{{Slaves: 2}},
			Traffic: []Traffic{
				{Kind: TrafficBulk, Piconet: 0, Slave: 2},
				{Kind: TrafficPoisson, Piconet: 0}, // covers slave 2 again
			},
		}, "traffic", 1, "already carries ACL traffic[0]"},
		{"voice with ACL type", Spec{
			Piconets: onePiconet,
			Traffic:  []Traffic{{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeDM1}},
		}, "traffic", 0, "not a voice packet type"},
		{"bulk in bridged world", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1}},
			Traffic:  []Traffic{{Kind: TrafficBulk, Piconet: AllPiconets}},
		}, "traffic", 0, "cannot share a world with bridges"},
		{"flow without bridges", Spec{
			Piconets: onePiconet,
			Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(0, 1)}},
		}, "traffic", 0, "at least one bridge"},
		{"flow unknown endpoint", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1}},
			Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: "nobody"}},
		}, "traffic", 0, "not a device"},
		{"flow from bridge", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1}},
			Traffic:  []Traffic{{Kind: TrafficFlow, From: BridgeName(0), To: SlaveName(0, 1)}},
		}, "traffic", 0, "neither originate nor terminate"},
		{"flow into bridge", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1}},
			Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: BridgeName(0)}},
		}, "traffic", 0, "neither originate nor terminate"},
		{"flow without route", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1}},
			Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(2, 1)}},
		}, "traffic", 0, "no chain of bridges joins piconet 0 to piconet 2"},
		{"flow to detached piconet", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}, {Slaves: 1, Detached: true}},
			Bridges:  []Bridge{{A: 0, B: 1}},
			Traffic:  []Traffic{{Kind: TrafficFlow, From: SlaveName(2, 1), To: MasterName(0)}},
		}, "traffic", 0, "detached piconet 2"},
		{"flow endpoint name too long", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Name: strings.Repeat("n", 250), Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1}},
			Traffic:  []Traffic{{Kind: TrafficFlow, From: MasterName(0), To: strings.Repeat("n", 250) + ".slave1"}},
		}, "traffic", 0, "over 255"},
		{"too many flows", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1}},
			Traffic:  slices.Repeat([]Traffic{{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(1, 1)}}, 256),
		}, "traffic", 255, "at most 255 flows"},
		{"traffic unknown piconet", Spec{
			Piconets: onePiconet,
			Traffic:  []Traffic{{Kind: TrafficBulk, Piconet: 3}},
		}, "traffic", 0, "unknown piconet 3"},
		{"jammer band", Spec{
			Piconets: onePiconet,
			Jammers:  []Jammer{{Lo: 70, Hi: 90, Duty: 0.5}},
		}, "jammer", 0, "outside"},
		{"jammer duty", Spec{
			Piconets: onePiconet,
			Jammers:  []Jammer{{Lo: 0, Hi: 10, Duty: 1.5}},
		}, "jammer", 0, "duty"},
		{"power unknown slave", Spec{
			Piconets: onePiconet,
			Modes:    []PowerMode{{Kind: SniffMode, Slave: 4}},
		}, "power", 0, "slave 4"},
		{"power missing kind", Spec{
			Piconets: onePiconet,
			Modes:    []PowerMode{{}},
		}, "power", 0, "unknown mode kind"},
		{"probe duplicate name", Spec{
			Piconets: onePiconet,
			Probes: []Probe{
				{Name: "x", Kind: ProbeSlaveActivity, Piconet: AllPiconets},
				{Name: "x", Kind: ProbeMasterActivity, Piconet: AllPiconets},
			},
		}, "probe", 1, "duplicate"},
		{"bridge probe unbridged", Spec{
			Piconets: onePiconet,
			Probes:   []Probe{{Kind: ProbeBridgeActivity}},
		}, "probe", 0, "without bridges"},
		{"bad presence duty", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1, PresenceDuty: 1.4}},
		}, "bridge", 0, "duty"},
		{"odd presence period", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1, PresencePeriodSlots: 130}},
		}, "bridge", 0, "multiple of 4"},
		{"tiny presence period", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1, PresencePeriodSlots: 32}},
		}, "bridge", 0, ">= 64"},
		{"presence window eaten by guard", Spec{
			Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
			Bridges:  []Bridge{{A: 0, B: 1, PresenceDuty: 0.03}},
		}, "bridge", 0, "no presence window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("invalid spec validated clean")
			}
			var se *StanzaError
			if !errors.As(err, &se) {
				t.Fatalf("error is not a *StanzaError: %v", err)
			}
			if se.Stanza != tc.stanza || se.Index != tc.index {
				t.Fatalf("blamed %s[%d], want %s[%d]: %v", se.Stanza, se.Index, tc.stanza, tc.index, err)
			}
			if !strings.Contains(err.Error(), tc.message) {
				t.Fatalf("message %q does not mention %q", err.Error(), tc.message)
			}
			// Build must refuse the same spec without touching the world.
			if _, berr := Build(core.NewSimulation(core.Options{Seed: 1}), tc.spec); berr == nil {
				t.Fatal("Build accepted a spec Validate rejected")
			}
		})
	}
}

func TestValidSpecsValidate(t *testing.T) {
	specs := []Spec{
		{Piconets: []Piconet{{Slaves: 7}}},
		{
			Piconets: []Piconet{{Slaves: 2}, {Slaves: 2}, {Slaves: 2}},
			Traffic: []Traffic{
				{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3},
				{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeHV1, TscoSlots: 6, DscoEven: 2, Slave: 2},
				{Kind: TrafficBulk, Piconet: 1},
				{Kind: TrafficPoisson, Piconet: 2},
			},
			Jammers: []Jammer{{Lo: 30, Hi: 52, Duty: 0.9}},
			Modes:   []PowerMode{{Kind: SniffMode, Piconet: 1, TsniffSlots: 64}},
			Probes:  []Probe{{Kind: ProbeSlaveActivity, Piconet: AllPiconets}},
		},
		{
			Piconets: slices.Repeat([]Piconet{{Slaves: 5, TpollSlots: 64}}, 3),
			Bridges:  ChainBridges(3, Bridge{}),
			Traffic: []Traffic{
				{Kind: TrafficFlow, From: MasterName(0), To: SlaveName(2, 1)},
				{Kind: TrafficFlow, From: MasterName(2), To: SlaveName(0, 1)},
			},
		},
	}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %d rejected: %v", i, err)
		}
	}
}

// TestTpollDefaultIsBridgeAware pins the conditional default: bridged
// worlds poll every 64 slots so idle links stay supervised, bridge-free
// worlds effectively never (the pumped data is the poll).
func TestTpollDefaultIsBridgeAware(t *testing.T) {
	plain := Spec{Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}}}.withDefaults()
	if got := plain.Piconets[0].TpollSlots; got != 0 {
		t.Fatalf("bridge-free Tpoll resolved to %d, want 0 (baseband default)", got)
	}
	bridged := Spec{
		Piconets: []Piconet{{Slaves: 1}, {Slaves: 1}},
		Bridges:  []Bridge{{A: 0, B: 1}},
	}.withDefaults()
	if got := bridged.Piconets[0].TpollSlots; got != 64 {
		t.Fatalf("bridged Tpoll default %d, want 64", got)
	}
	explicit := Spec{
		Piconets: slices.Repeat([]Piconet{{Slaves: 1, TpollSlots: 128}}, 2),
		Bridges:  []Bridge{{A: 0, B: 1}},
	}.withDefaults()
	if got := explicit.Piconets[0].TpollSlots; got != 128 {
		t.Fatalf("explicit Tpoll overridden to %d", got)
	}
}

// TestMixedVoiceAndBulkWorld drives the new heterogeneous shape: one
// voice piconet and one bulk piconet sharing the medium, read through
// the unified metrics surface.
func TestMixedVoiceAndBulkWorld(t *testing.T) {
	w := world(t, 11, Spec{
		Piconets: []Piconet{{Slaves: 2}, {Slaves: 1}},
		Traffic: []Traffic{
			{Kind: TrafficVoice, Piconet: 0, PacketType: packet.TypeHV3},
			{Kind: TrafficBulk, Piconet: 1},
		},
	})
	w.Start()
	w.Sim.RunSlots(64)
	w.ResetMetrics()
	w.Sim.RunSlots(4000)
	m := w.Metrics()
	if len(m.Voice) != 2 {
		t.Fatalf("want 2 voice streams, got %d", len(m.Voice))
	}
	for _, v := range m.Voice {
		if v.TxFrames == 0 || v.RxFrames == 0 {
			t.Fatalf("voice stream silent: %+v", v)
		}
		if v.BitPerfect > v.RxFrames {
			t.Fatalf("bit-perfect exceeds delivered: %+v", v)
		}
	}
	if m.PerPiconet[1] == 0 {
		t.Fatal("bulk piconet delivered nothing")
	}
	if m.PerPiconet[0] != 0 {
		t.Fatalf("voice piconet counted ACL bytes: %d", m.PerPiconet[0])
	}
	if m.Slots != 4000 {
		t.Fatalf("window slots %d, want 4000", m.Slots)
	}
	if m.GoodputKbps() <= 0 {
		t.Fatal("no goodput")
	}
	tx := 0
	for _, fc := range m.PerFreq {
		tx += fc.Transmissions
	}
	if tx == 0 {
		t.Fatal("per-frequency window empty")
	}
}

// TestPoissonTrafficDeterministic pins the poisson source: bursts
// arrive, and the same seed reproduces the same delivered-byte count.
func TestPoissonTrafficDeterministic(t *testing.T) {
	run := func() int {
		w := world(t, 23, Spec{
			Piconets: []Piconet{{Slaves: 1}},
			Traffic:  []Traffic{{Kind: TrafficPoisson, Piconet: 0, MeanGapSlots: 40, BurstBytes: 64}},
		})
		w.Start()
		w.ResetMetrics()
		w.Sim.RunSlots(6000)
		return w.Metrics().Bytes
	}
	a, b := run(), run()
	if a == 0 {
		t.Fatal("poisson source delivered nothing")
	}
	if a != b {
		t.Fatalf("identical seeds diverged: %d vs %d bytes", a, b)
	}
}

// TestDetachedPiconetBuildsUnconnected checks the Detached stanza:
// devices exist, nothing is paged.
func TestDetachedPiconetBuildsUnconnected(t *testing.T) {
	w := world(t, 3, Spec{
		Piconets: []Piconet{{Slaves: 2, Detached: true}},
	})
	p := w.Piconets[0]
	if p.Master == nil || len(p.Slaves) != 2 {
		t.Fatalf("devices missing: %+v", p)
	}
	if len(p.Links) != 0 || p.LMP != nil {
		t.Fatal("detached piconet was connected")
	}
	if w.Sim.Now() != 0 {
		t.Fatalf("detached build advanced time to slot %d", w.Sim.Now())
	}
}

// TestPowerModesLowerActivity checks that the PowerMode stanzas bite:
// a sniffing slave burns measurably less RX than an active one.
func TestPowerModesLowerActivity(t *testing.T) {
	measure := func(modes ...PowerMode) float64 {
		w := world(t, 13, Spec{
			Piconets: []Piconet{{Slaves: 1}},
			Modes:    modes,
			Probes:   []Probe{{Name: "s", Kind: ProbeSlaveActivity, Piconet: 0}},
		})
		w.Sim.RunSlots(1000)
		w.ResetMetrics()
		w.Sim.RunSlots(10000)
		rx := w.Metrics().Probes["s"].Rx
		return rx.Mean()
	}
	active := measure()
	sniff := measure(PowerMode{Kind: SniffMode, TsniffSlots: 200})
	if active <= 0 {
		t.Fatal("active slave shows no RX activity")
	}
	if sniff >= active/2 {
		t.Fatalf("sniff did not save energy: active %.5f, sniff %.5f", active, sniff)
	}
}

// TestStartTwicePanics pins the one-shot Start contract.
func TestStartTwicePanics(t *testing.T) {
	w := world(t, 1, Spec{
		Piconets: []Piconet{{Slaves: 1}},
		Traffic:  []Traffic{{Kind: TrafficBulk, Piconet: 0}},
	})
	w.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start must panic")
		}
	}()
	w.Start()
}
