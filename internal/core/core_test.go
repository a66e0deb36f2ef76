package core

import (
	"strings"
	"testing"

	"repro/internal/baseband"
	"repro/internal/packet"
)

func dev(s *Simulation, name string, lap uint32) *baseband.Device {
	return s.AddDevice(name, baseband.Config{Addr: baseband.BDAddr{LAP: lap, UAP: uint8(lap)}})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		s := NewSimulation(Options{Seed: 99, BER: 1.0 / 80})
		m := dev(s, "m", 0x111111)
		sl := dev(s, "s", 0x222222)
		out := s.RunCreation(m, sl, 2048)
		return out.InquirySlots, out.PageSlots
	}
	i1, p1 := run()
	i2, p2 := run()
	if i1 != i2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", i1, p1, i2, p2)
	}
}

func TestSeedsDiffer(t *testing.T) {
	res := map[uint64]bool{}
	for seed := uint64(1); seed <= 5; seed++ {
		s := NewSimulation(Options{Seed: seed})
		m := dev(s, "m", 0x111111)
		sl := dev(s, "s", 0x222222)
		out := s.RunCreation(m, sl, 4096)
		if !out.Created() {
			t.Fatalf("seed %d: noiseless creation failed (inq=%v page=%v)", seed, out.InquiryOK, out.PageOK)
		}
		res[out.InquirySlots] = true
	}
	if len(res) < 2 {
		t.Fatal("inquiry durations identical across seeds; phases not randomised")
	}
}

func TestRunCreationNoiseless(t *testing.T) {
	s := NewSimulation(Options{Seed: 3})
	m := dev(s, "m", 0x515151)
	sl := dev(s, "s", 0x626262)
	out := s.RunCreation(m, sl, 2048)
	if !out.Created() {
		t.Fatalf("creation failed: %+v", out)
	}
	if out.InquirySlots == 0 || out.InquirySlots > 2048 {
		t.Fatalf("inquiry slots = %d", out.InquirySlots)
	}
	if out.PageSlots > 100 {
		t.Fatalf("page slots = %d, want small when synchronised", out.PageSlots)
	}
}

func TestRunPageOnlyFast(t *testing.T) {
	s := NewSimulation(Options{Seed: 4})
	m := dev(s, "m", 0x717171)
	sl := dev(s, "s", 0x828282)
	ok, slots := s.RunPageOnly(m, sl, 2048)
	if !ok {
		t.Fatal("page failed")
	}
	// Paper: ~17 slots noiseless. Our handshake plus train alignment
	// stays in the same few-tens regime.
	if slots > 64 {
		t.Fatalf("page slots = %d, want tens", slots)
	}
}

func TestHighBERKillsPage(t *testing.T) {
	s := NewSimulation(Options{Seed: 5, BER: 1.0 / 15})
	m := dev(s, "m", 0x919191)
	sl := dev(s, "s", 0xA2A2A2)
	ok, _ := s.RunPageOnly(m, sl, 1024)
	if ok {
		t.Fatal("page should be impossible at BER 1/15")
	}
}

func TestBuildPiconetThreeSlaves(t *testing.T) {
	s := NewSimulation(Options{Seed: 6})
	m := dev(s, "master", 0x121212)
	s1 := dev(s, "slave1", 0x232323)
	s2 := dev(s, "slave2", 0x343434)
	s3 := dev(s, "slave3", 0x454545)
	links := s.BuildPiconet(m, s1, s2, s3)
	if len(links) != 3 {
		t.Fatalf("links = %d", len(links))
	}
	if !m.IsMaster() {
		t.Fatal("master flag unset")
	}
	for _, sl := range []*baseband.Device{s1, s2, s3} {
		if sl.MasterLink() == nil {
			t.Fatalf("%s has no master link", sl.Name())
		}
	}
}

func TestVCDTraceWritten(t *testing.T) {
	var sb strings.Builder
	s := NewSimulation(Options{Seed: 7, TraceTo: &sb})
	m := dev(s, "master", 0x616161)
	sl := dev(s, "slave", 0x727272)
	s.BuildPiconet(m, sl)
	s.RunSlots(200)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$var wire 1", "enable_rx_RF", "enable_tx_RF",
		"$scope module master $end", "$scope module slave $end",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q", want)
		}
	}
	if strings.Count(out, "#") < 50 {
		t.Fatal("VCD suspiciously small")
	}
}

func TestActivityHelpers(t *testing.T) {
	s := NewSimulation(Options{Seed: 8})
	m := dev(s, "m", 0x818181)
	sl := dev(s, "s", 0x929292)
	s.BuildPiconet(m, sl)
	ResetMeters(sl)
	s.RunSlots(1000)
	tx, rx := Activity(sl)
	if rx <= 0 {
		t.Fatal("slave RX activity must be positive in active mode")
	}
	if tx < 0 || tx > rx {
		t.Fatalf("odd activity: tx=%v rx=%v", tx, rx)
	}
}

func TestDataThroughCore(t *testing.T) {
	s := NewSimulation(Options{Seed: 9})
	m := dev(s, "m", 0xABAB01)
	sl := dev(s, "s", 0xCDCD02)
	links := s.BuildPiconet(m, sl)
	var got []byte
	sl.OnData = func(l *baseband.Link, p []byte, llid uint8) { got = append(got, p...) }
	links[0].Send([]byte("paper fig workload"), packet.LLIDL2CAPStart)
	s.RunSlots(500)
	if string(got) != "paper fig workload" {
		t.Fatalf("got %q", got)
	}
}

func TestDuplicateDevicePanics(t *testing.T) {
	s := NewSimulation(Options{Seed: 10})
	dev(s, "x", 0x111111)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name must panic")
		}
	}()
	dev(s, "x", 0x222222)
}
