// Package netspec is the declarative topology layer of the simulator:
// one Spec value describes a whole radio world — piconets, scatternet
// bridges, traffic sources (saturating ACL pumps, SCO voice, poisson
// bursts, end-to-end relayed flows), jammers, power modes and metric
// probes — and one Build call compiles it onto the baseband, LMP,
// L2CAP and channel machinery the lower layers provide. Every world
// the repo knows how to stand up (a lone piconet of the paper's Fig 5,
// the multi-piconet coexistence experiments, bridged scatternet
// chains, mixed voice/data rooms) is a Spec.
//
// The layer exists so scenario diversity stops costing boilerplate:
// adding a workload means writing a Spec literal, not threading a new
// config struct through four call sites. Validation names the stanza
// that is wrong, construction is deterministic (the same Spec on the
// same seed reproduces a run bit for bit), and the built World exposes
// one Metrics surface — goodput, latency samples, per-frequency
// channel stats, queue occupancy — so callers stop hand-collecting
// counters.
package netspec

import (
	"fmt"

	"repro/internal/hop"
	"repro/internal/packet"
)

// AllPiconets targets a Traffic, PowerMode or Probe stanza at every
// piconet of the spec.
const AllPiconets = -1

// TpollNever pushes the master's polling interval beyond any
// realistic horizon. Saturating-pump worlds use it so the pumped data
// is the only poll (the coexistence experiments' discipline).
const TpollNever = 1 << 20

// AFHMode selects how a piconet manages its hop set.
type AFHMode int

// Hop-set management modes.
const (
	// AFHOff hops the classic full 79-channel sequence.
	AFHOff AFHMode = iota
	// AFHOracle installs ExcludeRange(OracleLo, OracleHi) over LMP right
	// after the piconets are built — the hand-picked map of the original
	// coexistence experiments, kept as the upper reference.
	AFHOracle
	// AFHAdaptive learns the map: every AssessWindowSlots the master
	// classifies channels from its per-frequency reception tallies and
	// installs the good set over LMP when the classification changes.
	AFHAdaptive
)

// Spec is one declarative world description. The zero value is an
// empty world; stanzas are appended and compiled by Build.
type Spec struct {
	// Piconets are the piconet stanzas, in build order. Index in this
	// slice is the piconet's identity everywhere else in the spec.
	Piconets []Piconet `json:"piconets"`
	// Bridges join pairs of piconets into a scatternet.
	Bridges []Bridge `json:"bridges,omitempty"`
	// Traffic stanzas are started by World.Start, in order.
	Traffic []Traffic `json:"traffic,omitempty"`
	// Jammers are static interferers installed after construction, so
	// topology setup happens on a clean medium and every arm of an
	// experiment sees an identical build.
	Jammers []Jammer `json:"jammers,omitempty"`
	// Modes put slaves into low-power modes at the end of construction.
	Modes []PowerMode `json:"modes,omitempty"`
	// Probes name metric selections surfaced by World.Metrics.
	Probes []Probe `json:"probes,omitempty"`
	// Placement, when set, switches the world onto the spatial medium:
	// devices get positions from the declared geometry and transmissions
	// follow the path-loss range model (see placement.go). Nil keeps the
	// paper's single shared ether.
	Placement *Placement `json:"placement,omitempty"`
}

// Piconet declares one master-plus-slaves group.
type Piconet struct {
	// Name is the device-name prefix: the master is "<Name>.master",
	// the slaves "<Name>.slave1"... Defaults to "p<index>".
	Name string `json:"name,omitempty"`
	// Slaves is the number of regular slaves, 1..7 (bridges hosted by
	// this piconet count against the same 7 active members). Required:
	// a zero-slave stanza is a validation error, not a default.
	Slaves int `json:"slaves"`
	// Detached builds the devices without paging them together: no
	// links, no LMP, no traffic. Inquiry/page procedures drive
	// connection establishment instead.
	Detached bool `json:"detached,omitempty"`
	// TpollSlots is the master's maximum polling interval. Zero takes
	// the baseband default (50 slots) in bridge-free worlds and 64 when
	// the spec has bridges, whose mostly idle links must stay
	// supervised by regular POLLs; saturating-pump worlds typically set
	// TpollNever so the pumped data is the only poll.
	TpollSlots int `json:"tpoll_slots,omitempty"`
	// R1PageScan keeps the slaves' standard page-scan discipline (the
	// spec's R1: an 18-slot window every 2048 slots) instead of the
	// continuous scanning multi-piconet construction defaults to so
	// foreign-piconet interference cannot starve the page handshake.
	// The single-piconet paper scenarios set it to reproduce the
	// standard's scan behaviour.
	R1PageScan bool `json:"r1_page_scan,omitempty"`

	// AFH selects the hop-set management mode (default AFHOff).
	AFH AFHMode `json:"afh,omitempty"`
	// OracleLo..OracleHi is the band AFHOracle excludes.
	OracleLo int `json:"oracle_lo,omitempty"`
	OracleHi int `json:"oracle_hi,omitempty"`
	// AssessWindowSlots is the classification period of AFHAdaptive
	// (default 2000 slots = 1.25 s).
	AssessWindowSlots int `json:"assess_window_slots,omitempty"`
	// MinObservations is how many receptions a channel needs inside one
	// window before its classification may change (default 4).
	MinObservations int `json:"min_observations,omitempty"`
	// BadThreshold is the error fraction at or above which an observed
	// channel is classified bad (default 0.25).
	BadThreshold float64 `json:"bad_threshold,omitempty"`
	// ReprobeWindows bounds how long a bad verdict can outlive its
	// evidence (default 8): after that many silent windows an excluded
	// channel is re-admitted on probation.
	ReprobeWindows int `json:"reprobe_windows,omitempty"`
}

// Bridge declares one scatternet bridge: a device paged into piconets
// A and B as a slave of both, timesharing its single radio between the
// two hop sequences and relaying L2CAP frames store-and-forward.
type Bridge struct {
	// A and B are the joined piconets' indices (A first: the bridge's
	// collisions are attributed to A, matching its lower presence half).
	A int `json:"a"`
	B int `json:"b"`

	// PresencePeriodSlots is the timesharing period T: the bridge
	// cycles through both piconets once per period. Must be a multiple
	// of 4 (windows land on even-slot boundaries); default 256 slots.
	PresencePeriodSlots int `json:"presence_period_slots,omitempty"`
	// PresenceDuty is the fraction of the period the bridge radio is
	// present in some piconet, split evenly between the two. In (0, 1];
	// default 0.8.
	PresenceDuty float64 `json:"presence_duty,omitempty"`
	// GuardEvenSlots shortens each presence window by this many even
	// slots so a multi-slot exchange never straddles a retune boundary
	// (default 2).
	GuardEvenSlots int `json:"guard_even_slots,omitempty"`
	// PacketType carries the bridge's relay links (default DM1).
	PacketType packet.Type `json:"packet_type,omitempty"`
	// PumpDepth bounds how many frames the bridge drain keeps in a
	// baseband transmit queue; beyond it, backpressure stays at L2CAP
	// where the queue statistics live (default 2).
	PumpDepth int `json:"pump_depth,omitempty"`
	// MaxQueueFrames bounds the store-and-forward backlog (both
	// directions pooled); frames beyond it are dropped and counted
	// (default 32).
	MaxQueueFrames int `json:"max_queue_frames,omitempty"`
}

// TrafficKind selects a traffic stanza's generator.
type TrafficKind int

// Traffic kinds.
const (
	// TrafficBulk keeps a saturating master-to-slave ACL pump running
	// on every targeted link (PumpDepth packets queued, refilled every
	// two slots).
	TrafficBulk TrafficKind = iota + 1
	// TrafficVoice reserves an SCO voice channel master-to-slave and
	// streams patterned frames, counting delivery and bit-perfection.
	TrafficVoice
	// TrafficPoisson sends BurstBytes ACL bursts with exponentially
	// distributed gaps (mean MeanGapSlots) on every targeted link.
	TrafficPoisson
	// TrafficFlow streams SDUs end to end between two named devices
	// across the scatternet relay (requires at least one bridge).
	TrafficFlow
)

func (k TrafficKind) String() string {
	switch k {
	case TrafficBulk:
		return "bulk"
	case TrafficVoice:
		return "voice"
	case TrafficPoisson:
		return "poisson"
	case TrafficFlow:
		return "flow"
	}
	return fmt.Sprintf("TrafficKind(%d)", int(k))
}

// Traffic declares one traffic source.
type Traffic struct {
	// Kind selects the generator. Required.
	Kind TrafficKind `json:"kind"`

	// Piconet targets bulk/voice/poisson stanzas (AllPiconets = every
	// piconet). Ignored by flows.
	Piconet int `json:"piconet,omitempty"`
	// Slave narrows the target to one slave (1-based; 0 = every slave
	// of the piconet).
	Slave int `json:"slave,omitempty"`

	// PacketType is the ACL carrier for bulk/poisson (default DM1) or
	// the HV voice type for voice (default HV3).
	PacketType packet.Type `json:"packet_type,omitempty"`
	// PumpDepth is the transmit-queue depth a bulk pump maintains
	// (default 4) or a flow origin is gated on (default 2).
	PumpDepth int `json:"pump_depth,omitempty"`

	// TscoSlots is the voice reservation period (default full rate for
	// the type: HV1 2, HV2 4, HV3 6).
	TscoSlots int `json:"tsco_slots,omitempty"`
	// DscoEven is the voice reservation offset in even-slot units, used
	// to interleave multiple SCO links (default 0).
	DscoEven int `json:"dsco_even,omitempty"`

	// MeanGapSlots is the poisson mean inter-burst gap (default 100).
	MeanGapSlots float64 `json:"mean_gap_slots,omitempty"`
	// BurstBytes is the poisson burst size (default 256).
	BurstBytes int `json:"burst_bytes,omitempty"`

	// From and To name the flow endpoints (device names; see
	// MasterName/SlaveName).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// SDUBytes is the flow SDU payload size (default 64).
	SDUBytes int `json:"sdu_bytes,omitempty"`
}

// Jammer declares a static interferer occupying channels Lo..Hi: a hit
// transmission is destroyed with probability Duty.
type Jammer struct {
	Lo   int     `json:"lo"`
	Hi   int     `json:"hi"`
	Duty float64 `json:"duty"`
}

// PowerKind selects a low-power mode.
type PowerKind int

// Low-power modes a PowerMode stanza can request.
const (
	// SniffMode puts the link into periodic sniff (TsniffSlots anchor
	// spacing, AttemptEvenSlots window).
	SniffMode PowerKind = iota + 1
	// HoldMode cycles the link through repeating hold periods of
	// TholdSlots.
	HoldMode
	// ParkMode parks the slave on the beacon channel (BeaconSlots).
	ParkMode
)

func (k PowerKind) String() string {
	switch k {
	case SniffMode:
		return "sniff"
	case HoldMode:
		return "hold"
	case ParkMode:
		return "park"
	}
	return fmt.Sprintf("PowerKind(%d)", int(k))
}

// PowerMode declares a low-power mode entered at the end of
// construction, directly at baseband on both ends of the link (the
// paper's Figs 9-12 workloads). LMP-negotiated transitions remain
// available at run time through the piconet's LMP manager.
type PowerMode struct {
	// Kind selects the mode. Required.
	Kind PowerKind `json:"kind"`
	// Piconet targets the stanza (AllPiconets = every piconet).
	Piconet int `json:"piconet,omitempty"`
	// Slave narrows it to one slave (1-based; 0 = every slave).
	Slave int `json:"slave,omitempty"`
	// TsniffSlots is the sniff anchor period (default 100).
	TsniffSlots int `json:"tsniff_slots,omitempty"`
	// AttemptEvenSlots is the sniff attempt window (default 2).
	AttemptEvenSlots int `json:"attempt_even_slots,omitempty"`
	// TholdSlots is the repeating hold period (default 400).
	TholdSlots int `json:"thold_slots,omitempty"`
	// BeaconSlots is the park beacon interval (default 64).
	BeaconSlots int `json:"beacon_slots,omitempty"`
}

// ProbeKind selects what a probe samples.
type ProbeKind int

// Probe kinds.
const (
	// ProbeSlaveActivity samples every targeted slave's TX/RX activity
	// fractions since the last ResetMetrics.
	ProbeSlaveActivity ProbeKind = iota + 1
	// ProbeMasterActivity samples the targeted masters' activity.
	ProbeMasterActivity
	// ProbeBridgeActivity samples every bridge's activity.
	ProbeBridgeActivity
)

// Probe names one metric selection; World.Metrics reports it under
// Probes[Name].
type Probe struct {
	// Name keys the result (default "probe<index>").
	Name string `json:"name,omitempty"`
	// Kind selects what is sampled. Required.
	Kind ProbeKind `json:"kind"`
	// Piconet targets activity probes (AllPiconets = every piconet).
	Piconet int `json:"piconet,omitempty"`
}

// MasterName returns the default device name of piconet i's master.
func MasterName(i int) string { return fmt.Sprintf("p%d.master", i) }

// SlaveName returns the default device name of slave j (1-based) in
// piconet i.
func SlaveName(i, j int) string { return fmt.Sprintf("p%d.slave%d", i, j) }

// BridgeName returns the device name of bridge i.
func BridgeName(i int) string { return fmt.Sprintf("bridge%d", i) }

// ChainBridges joins piconets 0..piconets-1 into a chain: bridge i is
// a copy of b joining piconets i and i+1.
func ChainBridges(piconets int, b Bridge) []Bridge {
	out := make([]Bridge, 0, piconets-1)
	for i := 0; i < piconets-1; i++ {
		b.A, b.B = i, i+1
		out = append(out, b)
	}
	return out
}

// StanzaError reports a validation failure, naming the offending
// stanza by kind, index and (when set) name.
type StanzaError struct {
	// Stanza is the stanza kind: "piconet", "bridge", "traffic",
	// "jammer", "power", "probe".
	Stanza string
	// Index is the stanza's position in its Spec slice.
	Index int
	// Name is the stanza's name, when it has one.
	Name string
	// Err is the underlying complaint.
	Err error
}

func (e *StanzaError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("netspec: %s[%d] %q: %v", e.Stanza, e.Index, e.Name, e.Err)
	}
	return fmt.Sprintf("netspec: %s[%d]: %v", e.Stanza, e.Index, e.Err)
}

func (e *StanzaError) Unwrap() error { return e.Err }

func stanzaErr(stanza string, index int, name, format string, args ...any) error {
	return &StanzaError{Stanza: stanza, Index: index, Name: name, Err: fmt.Errorf(format, args...)}
}

// fullRateTsco is the full-rate SCO period per voice type.
var fullRateTsco = map[packet.Type]int{
	packet.TypeHV1: 2, packet.TypeHV2: 4, packet.TypeHV3: 6,
}

// withDefaults returns a deep copy of the spec with every zero field
// filled with its documented default. Validation and Build both work
// on the resolved copy, so an unset field and its explicit default
// behave identically.
func (s Spec) withDefaults() Spec {
	out := Spec{
		Piconets: append([]Piconet(nil), s.Piconets...),
		Bridges:  append([]Bridge(nil), s.Bridges...),
		Traffic:  append([]Traffic(nil), s.Traffic...),
		Jammers:  append([]Jammer(nil), s.Jammers...),
		Modes:    append([]PowerMode(nil), s.Modes...),
		Probes:   append([]Probe(nil), s.Probes...),
	}
	if s.Placement != nil {
		pl := *s.Placement
		pl.withDefaults(len(out.Piconets))
		out.Placement = &pl
	}
	for i := range out.Piconets {
		p := &out.Piconets[i]
		if p.Name == "" {
			p.Name = fmt.Sprintf("p%d", i)
		}
		if p.TpollSlots == 0 && len(s.Bridges) > 0 {
			p.TpollSlots = 64
		}
		if p.AssessWindowSlots == 0 {
			p.AssessWindowSlots = 2000
		}
		if p.MinObservations == 0 {
			p.MinObservations = 4
		}
		if p.BadThreshold == 0 {
			p.BadThreshold = 0.25
		}
		if p.ReprobeWindows == 0 {
			p.ReprobeWindows = 8
		}
	}
	for i := range out.Bridges {
		b := &out.Bridges[i]
		if b.PresencePeriodSlots == 0 {
			b.PresencePeriodSlots = 256
		}
		if b.PresenceDuty == 0 {
			b.PresenceDuty = 0.8
		}
		if b.GuardEvenSlots == 0 {
			b.GuardEvenSlots = 2
		}
		if b.PacketType == 0 {
			b.PacketType = packet.TypeDM1
		}
		if b.PumpDepth == 0 {
			b.PumpDepth = 2
		}
		if b.MaxQueueFrames == 0 {
			b.MaxQueueFrames = 32
		}
	}
	for i := range out.Traffic {
		t := &out.Traffic[i]
		switch t.Kind {
		case TrafficVoice:
			if t.PacketType == 0 {
				t.PacketType = packet.TypeHV3
			}
			if t.TscoSlots == 0 {
				t.TscoSlots = fullRateTsco[t.PacketType]
			}
		default:
			if t.PacketType == 0 {
				t.PacketType = packet.TypeDM1
			}
		}
		if t.PumpDepth == 0 {
			if t.Kind == TrafficFlow {
				t.PumpDepth = 2
			} else {
				t.PumpDepth = 4
			}
		}
		if t.MeanGapSlots == 0 {
			t.MeanGapSlots = 100
		}
		if t.BurstBytes == 0 {
			t.BurstBytes = 256
		}
		if t.SDUBytes == 0 {
			t.SDUBytes = 64
		}
	}
	for i := range out.Modes {
		m := &out.Modes[i]
		if m.TsniffSlots == 0 {
			m.TsniffSlots = 100
		}
		if m.AttemptEvenSlots == 0 {
			m.AttemptEvenSlots = 2
		}
		if m.TholdSlots == 0 {
			m.TholdSlots = 400
		}
		if m.BeaconSlots == 0 {
			m.BeaconSlots = 64
		}
	}
	for i := range out.Probes {
		if out.Probes[i].Name == "" {
			out.Probes[i].Name = fmt.Sprintf("probe%d", i)
		}
	}
	return out
}

// Resolved returns a copy of the spec with every documented default
// filled in — the exact form Build compiles. Adapters use it to read
// the engine's defaults back instead of duplicating the table.
func (s Spec) Resolved() Spec { return s.withDefaults() }

// windowEvenSlots is a bridge's per-membership sniff attempt: half the
// duty share of the period, in even slots, minus the guard.
func (b *Bridge) windowEvenSlots() int {
	return int(b.PresenceDuty*float64(b.PresencePeriodSlots)/4) - b.GuardEvenSlots
}

// Validate checks the spec (with defaults applied) and returns the
// first violation as a *StanzaError naming the offending stanza.
func (s Spec) Validate() error { return s.withDefaults().validate() }

func (s Spec) validate() error {
	if len(s.Piconets) == 0 {
		return stanzaErr("spec", 0, "", "declares no piconets")
	}
	if s.Placement != nil {
		if err := s.Placement.validate(); err != nil {
			return err
		}
	}
	// Bridges hosted per piconet count against the 7 active members.
	hosted := make([]int, len(s.Piconets))
	for i := range s.Bridges {
		b := &s.Bridges[i]
		for _, pi := range []int{b.A, b.B} {
			if pi < 0 || pi >= len(s.Piconets) {
				return stanzaErr("bridge", i, "", "references unknown piconet %d (world has %d)", pi, len(s.Piconets))
			}
			hosted[pi]++
		}
		if b.A == b.B {
			return stanzaErr("bridge", i, "", "joins piconet %d to itself", b.A)
		}
		if s.Piconets[b.A].Detached || s.Piconets[b.B].Detached {
			return stanzaErr("bridge", i, "", "cannot bridge a detached piconet")
		}
		if b.PresencePeriodSlots < 64 || b.PresencePeriodSlots%4 != 0 {
			return stanzaErr("bridge", i, "", "presence period must be a multiple of 4 and >= 64, got %d", b.PresencePeriodSlots)
		}
		if b.PresenceDuty < 0 || b.PresenceDuty > 1 {
			return stanzaErr("bridge", i, "", "presence duty %g out of (0,1]", b.PresenceDuty)
		}
		if b.windowEvenSlots() < 1 {
			return stanzaErr("bridge", i, "", "duty %g leaves no presence window after the %d-even-slot guard",
				b.PresenceDuty, b.GuardEvenSlots)
		}
		if b.PumpDepth < 1 || b.MaxQueueFrames < 1 {
			return stanzaErr("bridge", i, "", "pump depth and queue bound must be >= 1, got %d and %d",
				b.PumpDepth, b.MaxQueueFrames)
		}
	}
	// Validation sees the defaulted spec, so Name is always set here.
	// Duplicates would collide in the device table (master and slave
	// names derive from the piconet name), which panics deep in core —
	// reject them where the wire format can report the stanza instead.
	names := make(map[string]int)
	for i := range s.Piconets {
		p := &s.Piconets[i]
		if prev, dup := names[p.Name]; dup {
			return stanzaErr("piconet", i, p.Name, "duplicate piconet name (also piconet %d)", prev)
		}
		names[p.Name] = i
		if p.Slaves < 1 {
			return stanzaErr("piconet", i, p.Name, "needs at least 1 slave, got %d", p.Slaves)
		}
		if p.Slaves+hosted[i] > 7 {
			return stanzaErr("piconet", i, p.Name, "%d slaves and %d bridges exceed the 7 active members",
				p.Slaves, hosted[i])
		}
		// Negative Tpoll would wrap through baseband's uint64 slot
		// conversion; TpollNever is the documented "data is the poll"
		// ceiling.
		if p.TpollSlots < 0 || p.TpollSlots > TpollNever {
			return stanzaErr("piconet", i, p.Name, "tpoll %d outside [0, %d]", p.TpollSlots, TpollNever)
		}
		if p.AFH == AFHOracle {
			// An unset band would silently install ExcludeRange(0, 0) — a
			// 78-channel map indistinguishable from plain hopping — and
			// poison every learned-vs-oracle comparison built on it.
			if p.OracleLo == 0 && p.OracleHi == 0 {
				return stanzaErr("piconet", i, p.Name, "AFHOracle requires OracleLo/OracleHi")
			}
			if p.OracleLo < 0 || p.OracleHi < p.OracleLo || p.OracleHi >= hop.NumChannels {
				return stanzaErr("piconet", i, p.Name, "invalid oracle band %d..%d", p.OracleLo, p.OracleHi)
			}
		}
		if p.AssessWindowSlots < 1 || p.MinObservations < 0 || p.ReprobeWindows < 0 ||
			p.BadThreshold < 0 || p.BadThreshold > 1 {
			return stanzaErr("piconet", i, p.Name, "invalid classifier config (window %d, min obs %d, reprobe %d, threshold %g)",
				p.AssessWindowSlots, p.MinObservations, p.ReprobeWindows, p.BadThreshold)
		}
		if p.Detached && hosted[i] > 0 {
			return stanzaErr("piconet", i, p.Name, "detached piconet cannot host a bridge")
		}
	}
	if err := s.validateTraffic(); err != nil {
		return err
	}
	for i := range s.Jammers {
		j := &s.Jammers[i]
		if j.Lo < 0 || j.Hi < j.Lo || j.Hi >= hop.NumChannels {
			return stanzaErr("jammer", i, "", "band %d..%d outside 0..%d", j.Lo, j.Hi, hop.NumChannels-1)
		}
		if j.Duty < 0 || j.Duty > 1 {
			return stanzaErr("jammer", i, "", "duty %g out of [0,1]", j.Duty)
		}
	}
	for i := range s.Modes {
		m := &s.Modes[i]
		if m.Kind < SniffMode || m.Kind > ParkMode {
			return stanzaErr("power", i, "", "unknown mode kind %d", int(m.Kind))
		}
		if err := s.checkTarget("power", i, "", m.Piconet, m.Slave, false); err != nil {
			return err
		}
		if m.TsniffSlots < 1 || m.AttemptEvenSlots < 1 || m.TholdSlots < 1 || m.BeaconSlots < 1 {
			return stanzaErr("power", i, "", "mode parameters must be >= 1 (tsniff %d, attempt %d, thold %d, beacon %d)",
				m.TsniffSlots, m.AttemptEvenSlots, m.TholdSlots, m.BeaconSlots)
		}
		// Baseband invariants, enforced here so a wire spec fails with a
		// stanza diagnostic instead of a panic deep in EnterSniff/Park.
		switch m.Kind {
		case SniffMode:
			if m.TsniffSlots < 2 || m.TsniffSlots%2 != 0 {
				return stanzaErr("power", i, "", "Tsniff must be even and >= 2, got %d", m.TsniffSlots)
			}
			if m.AttemptEvenSlots > m.TsniffSlots/2 {
				return stanzaErr("power", i, "", "sniff attempt %d exceeds Tsniff/2 (%d)", m.AttemptEvenSlots, m.TsniffSlots/2)
			}
		case ParkMode:
			if m.BeaconSlots < 2 || m.BeaconSlots%2 != 0 {
				return stanzaErr("power", i, "", "beacon period must be even and >= 2, got %d", m.BeaconSlots)
			}
		}
	}
	seen := make(map[string]bool)
	for i := range s.Probes {
		p := &s.Probes[i]
		if p.Kind < ProbeSlaveActivity || p.Kind > ProbeBridgeActivity {
			return stanzaErr("probe", i, p.Name, "unknown probe kind %d", int(p.Kind))
		}
		if seen[p.Name] {
			return stanzaErr("probe", i, p.Name, "duplicate probe name")
		}
		seen[p.Name] = true
		if p.Kind == ProbeBridgeActivity && len(s.Bridges) == 0 {
			return stanzaErr("probe", i, p.Name, "bridge probe in a world without bridges")
		}
		if p.Kind == ProbeSlaveActivity || p.Kind == ProbeMasterActivity {
			if err := s.checkTarget("probe", i, p.Name, p.Piconet, 0, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkTarget validates a (piconet, slave) stanza target. Detached
// piconets are valid targets only where detachedOK.
func (s Spec) checkTarget(stanza string, idx int, name string, piconet, slave int, detachedOK bool) error {
	if piconet == AllPiconets {
		if slave != 0 {
			return stanzaErr(stanza, idx, name, "slave %d cannot combine with AllPiconets", slave)
		}
		return nil
	}
	if piconet < 0 || piconet >= len(s.Piconets) {
		return stanzaErr(stanza, idx, name, "references unknown piconet %d (world has %d)", piconet, len(s.Piconets))
	}
	p := &s.Piconets[piconet]
	if !detachedOK && p.Detached {
		return stanzaErr(stanza, idx, name, "targets detached piconet %d", piconet)
	}
	if slave < 0 || slave > p.Slaves {
		return stanzaErr(stanza, idx, name, "slave %d out of piconet %d's 1..%d", slave, piconet, p.Slaves)
	}
	return nil
}

// validateTraffic checks every traffic stanza, including SCO
// reservation overlap across the voice stanzas of one piconet.
func (s Spec) validateTraffic() error {
	bridged := len(s.Bridges) > 0
	// Per-piconet SCO reservations on the master: period (even slots)
	// and offset, with the stanza index for the error message.
	type resv struct {
		period, offset, stanza int
	}
	scos := make(map[int][]resv)
	// One ACL pump per link: a second bulk/poisson stanza on the same
	// link would silently overwrite the first one's packet type and
	// double the load.
	type linkKey struct{ piconet, slave int }
	pumps := make(map[linkKey]int)
	// Flow endpoints resolve to their piconets, and piconets to the
	// bridge-joined group a route can cross (built at the first flow).
	var owner map[string]int
	var joined []int
	flows := 0
	for i := range s.Traffic {
		t := &s.Traffic[i]
		switch t.Kind {
		case TrafficBulk, TrafficPoisson:
			if err := s.checkTarget("traffic", i, "", t.Piconet, t.Slave, false); err != nil {
				return err
			}
			for _, pi := range s.targetPiconets(t.Piconet) {
				slaves := []int{t.Slave}
				if t.Slave == 0 {
					slaves = slaves[:0]
					for j := 1; j <= s.Piconets[pi].Slaves; j++ {
						slaves = append(slaves, j)
					}
				}
				for _, sl := range slaves {
					k := linkKey{pi, sl}
					if prev, dup := pumps[k]; dup {
						return stanzaErr("traffic", i, "",
							"link p%d.slave%d already carries ACL traffic[%d]", pi, sl, prev)
					}
					pumps[k] = i
				}
			}
			if bridged {
				// Relay worlds route all host traffic through L2CAP; a raw
				// ACL pump would feed unparseable frames to the mux.
				return stanzaErr("traffic", i, "", "%v traffic cannot share a world with bridges; use flows", t.Kind)
			}
			if t.PumpDepth < 1 {
				return stanzaErr("traffic", i, "", "pump depth must be >= 1, got %d", t.PumpDepth)
			}
			if t.Kind == TrafficPoisson && (t.MeanGapSlots <= 0 || t.BurstBytes < 1) {
				return stanzaErr("traffic", i, "", "poisson needs positive mean gap and burst size, got %g and %d",
					t.MeanGapSlots, t.BurstBytes)
			}
			if t.PacketType.IsSCO() {
				return stanzaErr("traffic", i, "", "%v is not an ACL carrier", t.PacketType)
			}
		case TrafficVoice:
			if err := s.checkTarget("traffic", i, "", t.Piconet, t.Slave, false); err != nil {
				return err
			}
			if !t.PacketType.IsSCO() {
				return stanzaErr("traffic", i, "", "%v is not a voice packet type", t.PacketType)
			}
			min := fullRateTsco[t.PacketType]
			if t.TscoSlots < min || t.TscoSlots%2 != 0 {
				return stanzaErr("traffic", i, "", "%v needs an even Tsco >= %d, got %d", t.PacketType, min, t.TscoSlots)
			}
			// The reservation wheel indexes even slots modulo Tsco/2;
			// offsets outside [0, Tsco/2) alias through unsigned wrap at
			// runtime and would desynchronise the overlap check below.
			if t.DscoEven < 0 || t.DscoEven >= t.TscoSlots/2 {
				return stanzaErr("traffic", i, "", "Dsco %d outside [0, Tsco/2 = %d)", t.DscoEven, t.TscoSlots/2)
			}
			for _, pi := range s.targetPiconets(t.Piconet) {
				links := 1
				if t.Slave == 0 {
					links = s.Piconets[pi].Slaves
				}
				for k := 0; k < links; k++ {
					nr := resv{period: t.TscoSlots / 2, offset: t.DscoEven + k, stanza: i}
					for _, r := range scos[pi] {
						if scoOverlap(r.period, r.offset, nr.period, nr.offset) {
							return stanzaErr("traffic", i, "",
								"SCO reservation (Tsco %d, Dsco %d) on piconet %d overlaps traffic[%d]",
								t.TscoSlots, nr.offset, pi, r.stanza)
						}
					}
					scos[pi] = append(scos[pi], nr)
				}
			}
		case TrafficFlow:
			if !bridged {
				return stanzaErr("traffic", i, "", "flow traffic needs at least one bridge")
			}
			if flows++; flows > maxFlows {
				return stanzaErr("traffic", i, "", "at most %d flows", maxFlows)
			}
			if owner == nil {
				owner, joined = s.deviceOwners(), s.bridgeGroups()
			}
			for _, end := range []string{t.From, t.To} {
				if _, ok := owner[end]; !ok {
					return stanzaErr("traffic", i, "", "flow endpoint %q is not a device of this spec", end)
				}
			}
			if t.From == t.To {
				return stanzaErr("traffic", i, "", "flow endpoints coincide (%q)", t.From)
			}
			for _, end := range []string{t.From, t.To} {
				pi := owner[end]
				if pi < 0 {
					return stanzaErr("traffic", i, "",
						"bridges relay, they neither originate nor terminate flows (%q)", end)
				}
				if s.Piconets[pi].Detached {
					return stanzaErr("traffic", i, "", "flow endpoint %q is on detached piconet %d, which has no relay", end, pi)
				}
			}
			if len(t.To) > 255 {
				// The relay header carries the destination name's
				// length in one byte.
				return stanzaErr("traffic", i, "", "flow destination name is %d bytes, over 255", len(t.To))
			}
			if from, to := owner[t.From], owner[t.To]; joined[from] != joined[to] {
				return stanzaErr("traffic", i, "", "no chain of bridges joins piconet %d to piconet %d", from, to)
			}
			if t.SDUBytes < 1 || t.PumpDepth < 1 {
				return stanzaErr("traffic", i, "", "SDU size and pump depth must be >= 1, got %d and %d",
					t.SDUBytes, t.PumpDepth)
			}
		default:
			return stanzaErr("traffic", i, "", "missing traffic kind")
		}
	}
	return nil
}

// targetPiconets expands a stanza's piconet selector into the
// connected piconet indices it covers.
func (s Spec) targetPiconets(piconet int) []int {
	if piconet != AllPiconets {
		return []int{piconet}
	}
	var out []int
	for pi := range s.Piconets {
		if !s.Piconets[pi].Detached {
			out = append(out, pi)
		}
	}
	return out
}

// scoOverlap reports whether two SCO reservations ever claim the same
// even slot: with periods p1, p2 and offsets d1, d2 that happens iff
// gcd(p1, p2) divides d1-d2.
func scoOverlap(p1, d1, p2, d2 int) bool {
	d := d1 - d2
	if d < 0 {
		d = -d
	}
	return d%gcd(p1, p2) == 0
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// maxFlows bounds the flow stanzas of one spec: relay frames carry the
// flow index in one byte.
const maxFlows = 255

// deviceOwners maps every device name the spec will create to its
// piconet index (-1 for a bridge), for flow endpoint validation.
func (s Spec) deviceOwners() map[string]int {
	out := make(map[string]int)
	for i := range s.Piconets {
		p := &s.Piconets[i]
		out[p.Name+".master"] = i
		for j := 1; j <= p.Slaves; j++ {
			out[fmt.Sprintf("%s.slave%d", p.Name, j)] = i
		}
	}
	for i := range s.Bridges {
		out[BridgeName(i)] = -1
	}
	return out
}

// bridgeGroups labels every piconet with the lowest piconet index that
// a chain of bridges joins it to: a flow can route only between
// piconets with the same label.
func (s Spec) bridgeGroups() []int {
	label := make([]int, len(s.Piconets))
	for i := range label {
		label[i] = i
	}
	for changed := true; changed; {
		changed = false
		for _, b := range s.Bridges {
			if lo := min(label[b.A], label[b.B]); label[b.A] != lo || label[b.B] != lo {
				label[b.A], label[b.B] = lo, lo
				changed = true
			}
		}
	}
	return label
}
