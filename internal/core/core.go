// Package core is the public façade of the Bluetooth system-level model:
// it assembles the simulation kernel, the noisy channel and any number of
// devices into one Simulation value, and offers scenario helpers for the
// piconet workloads the paper studies (creation under noise, low-power
// modes). Examples, commands and benchmarks all build on this package.
package core

import (
	"fmt"
	"io"

	"repro/internal/baseband"
	"repro/internal/channel"
	"repro/internal/sim"
	"repro/internal/vcd"
)

// Options configures a Simulation.
type Options struct {
	// Seed drives every random stream (channel noise, backoff draws,
	// clock phases). The same seed reproduces a run bit for bit.
	Seed uint64
	// BER is the channel bit error rate (paper sweeps 0 .. 1/30).
	BER float64
	// TraceTo, when non-nil, receives a VCD dump of every device's
	// enable_tx_RF / enable_rx_RF / state signals (paper Figs 5 and 9).
	TraceTo io.Writer
}

// Simulation owns one simulated radio world.
type Simulation struct {
	K       *sim.Kernel
	Ch      *channel.Channel
	seed    uint64
	rng     *sim.Rand
	trace   *vcd.Writer
	devices map[string]*baseband.Device
	order   []string
}

// NewSimulation builds an empty world.
func NewSimulation(opt Options) *Simulation {
	k := sim.NewKernel()
	s := &Simulation{
		K:       k,
		seed:    opt.Seed,
		rng:     sim.NewRand(opt.Seed),
		devices: make(map[string]*baseband.Device),
	}
	if opt.TraceTo != nil {
		s.trace = vcd.New(opt.TraceTo)
		k.AddTracer(s.trace)
	}
	s.Ch = channel.New(k, s.rng.Split(), channel.Config{BER: opt.BER})
	return s
}

// AddDevice creates a device with a derived random clock phase and seed.
// Config fields left zero take calibrated defaults.
func (s *Simulation) AddDevice(name string, cfg baseband.Config) *baseband.Device {
	if cfg.ClockPhase == 0 {
		cfg.ClockPhase = uint32(s.rng.Uint64()) & 0x0FFFFFFF
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.rng.Uint64()
	}
	return s.addDevice(name, cfg)
}

// addDevice constructs the device without touching the root RNG: restore
// paths record the fully drawn Config in the checkpoint and must not
// perturb (or depend on) the stream when rebuilding, even in the
// astronomically unlikely case a recorded draw was itself zero.
func (s *Simulation) addDevice(name string, cfg baseband.Config) *baseband.Device {
	if _, dup := s.devices[name]; dup {
		panic(fmt.Sprintf("core: duplicate device %q", name))
	}
	if s.trace != nil && s.K.Now() > 0 {
		panic("core: with tracing enabled, add all devices before running")
	}
	d := baseband.New(s.K, s.Ch, name, cfg)
	s.devices[name] = d
	s.order = append(s.order, name)
	return d
}

// Device returns a device by name (nil if absent).
func (s *Simulation) Device(name string) *baseband.Device { return s.devices[name] }

// Devices returns devices in creation order.
func (s *Simulation) Devices() []*baseband.Device {
	out := make([]*baseband.Device, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.devices[n])
	}
	return out
}

// SplitRand derives an independent deterministic RNG stream from the
// simulation's root stream (advancing it by one draw). Layers that
// need their own randomness — e.g. poisson traffic sources — split at
// a deterministic point instead of sharing the root, so the world
// stays bit-reproducible.
func (s *Simulation) SplitRand() *sim.Rand { return s.rng.Split() }

// DerivedRand returns a deterministic RNG stream keyed by (seed, tag)
// WITHOUT advancing the root stream. Use it for optional layers —
// e.g. netspec placement — whose randomness must not perturb the
// device seeds and clock phases of a world built without them: the
// same Options.Seed then reproduces the exact same base world whether
// or not the optional layer draws. (SplitRand, by contrast, advances
// the root by one draw and is right for always-on consumers.)
func (s *Simulation) DerivedRand(tag string) *sim.Rand {
	// FNV-1a over the tag, folded into the golden-ratio-scrambled seed.
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return sim.NewRand(h ^ (s.seed+1)*0x9E3779B97F4A7C15)
}

// RunSlots advances the simulation by n slots.
func (s *Simulation) RunSlots(n uint64) {
	s.K.RunUntil(s.K.Now() + sim.Time(sim.Slots(n)))
}

// Now returns the current simulation time in slots.
func (s *Simulation) Now() uint64 { return s.K.Now().Slot() }

// Close flushes the VCD trace (if any).
func (s *Simulation) Close() error {
	if s.trace != nil {
		return s.trace.Close()
	}
	return nil
}

// CreationOutcome reports one piconet-creation attempt (Fig 8 trial).
type CreationOutcome struct {
	InquiryOK    bool
	InquirySlots uint64
	PageOK       bool
	PageSlots    uint64
}

// Created reports whether both phases succeeded.
func (o CreationOutcome) Created() bool { return o.InquiryOK && o.PageOK }

// RunCreation performs a full inquiry-then-page piconet creation between
// master and slave with the paper's timeout discipline (both phases
// bounded by timeoutSlots, the paper's 1.28 s = 2048 slots), and runs
// the kernel until the outcome is decided.
func (s *Simulation) RunCreation(master, slave *baseband.Device, timeoutSlots int) CreationOutcome {
	var out CreationOutcome
	decided := false
	slave.StartInquiryScan()
	master.StartInquiry(timeoutSlots, 1, func(rs []baseband.InquiryResult, ok bool) {
		out.InquiryOK = ok
		out.InquirySlots = master.InquirySlots()
		if !ok {
			decided = true
			return
		}
		slave.StartPageScan()
		master.StartPage(rs[0].Addr, master.EstimateOf(rs[0], 0), timeoutSlots, func(l *baseband.Link, ok bool) {
			out.PageOK = ok
			out.PageSlots = master.PageSlots()
			decided = true
		})
	})
	// Bound the wait: inquiry + page + slack.
	limit := s.K.Now() + sim.Time(sim.Slots(uint64(timeoutSlots)*2+256))
	for !decided && s.K.Now() < limit {
		s.K.RunUntil(s.K.Now() + sim.Time(sim.Slots(16)))
	}
	return out
}

// RunPageOnly performs just the page phase with a perfect clock estimate
// (the paper's Fig 7 setup: devices already synchronised by inquiry).
func (s *Simulation) RunPageOnly(master, slave *baseband.Device, timeoutSlots int) (ok bool, slots uint64) {
	decided := false
	slave.StartPageScan()
	est := master.EstimateOf(baseband.InquiryResult{
		CLKN: slave.Clock.CLKN(s.K.Now()) &^ 3, // FHS-truncated, as inquiry would report
		At:   s.K.Now(),
	}, 0)
	master.StartPage(slave.Addr(), est, timeoutSlots, func(l *baseband.Link, o bool) {
		ok = o
		slots = master.PageSlots()
		decided = true
	})
	limit := s.K.Now() + sim.Time(sim.Slots(uint64(timeoutSlots)+256))
	for !decided && s.K.Now() < limit {
		s.K.RunUntil(s.K.Now() + sim.Time(sim.Slots(16)))
	}
	return ok, slots
}

// BuildPiconet connects the named slaves to the master sequentially
// using direct paging with exact clock knowledge (the Fig 5/9 scenario:
// "all the devices try to connect at the same time"); it returns the
// master-side links in connection order and panics on failure, which
// cannot happen at BER 0 with sane timeouts.
func (s *Simulation) BuildPiconet(master *baseband.Device, slaves ...*baseband.Device) []*baseband.Link {
	links := make([]*baseband.Link, 0, len(slaves))
	idx := 0
	attempts := 0
	const maxAttempts = 10
	var pageNext func()
	pageNext = func() {
		if idx >= len(slaves) {
			return
		}
		sl := slaves[idx]
		// Open the slave's scan window right as its page begins, so the
		// windowed page-scan discipline never leaves the master paging
		// into a closed window.
		sl.StartPageScan()
		est := master.EstimateOf(baseband.InquiryResult{
			CLKN: sl.Clock.CLKN(s.K.Now()),
			At:   s.K.Now(),
		}, 0)
		master.StartPage(sl.Addr(), est, 2048, func(l *baseband.Link, ok bool) {
			if !ok {
				// Noise or interference broke the handshake; retry with a
				// fresh scan window.
				attempts++
				if attempts >= maxAttempts {
					panic(fmt.Sprintf("core: paging %s failed %d times", sl.Name(), attempts))
				}
				pageNext()
				return
			}
			links = append(links, l)
			idx++
			attempts = 0
			pageNext()
		})
	}
	pageNext()
	limit := s.K.Now() + sim.Time(sim.Slots(uint64(2500*maxAttempts*(len(slaves)+1))))
	for len(links) < len(slaves) && s.K.Now() < limit {
		s.K.RunUntil(s.K.Now() + sim.Time(sim.Slots(200)))
	}
	if len(links) != len(slaves) {
		panic(fmt.Sprintf("core: piconet incomplete: %d/%d slaves", len(links), len(slaves)))
	}
	return links
}

// Activity reports a device's RF activity fractions since its meters
// were last reset.
func Activity(d *baseband.Device) (tx, rx float64) {
	return d.TxMeter.Activity(), d.RxMeter.Activity()
}

// ResetMeters restarts the measurement windows of the device's meters.
func ResetMeters(d *baseband.Device) {
	d.TxMeter.Reset()
	d.RxMeter.Reset()
}
