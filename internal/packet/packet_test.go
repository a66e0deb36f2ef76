package packet

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/coding"
	"repro/internal/sim"
)

const (
	testLAP uint32 = 0x21043A
	testUAP uint8  = 0x47
	testCLK uint32 = 0x155
)

func mkData(t Type, n int, seed uint64) *Packet {
	r := sim.NewRand(seed)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	return &Packet{
		AccessLAP: testLAP,
		Header:    &Header{AMAddr: 3, Type: t, SEQN: true},
		Payload:   data,
		LLID:      LLIDL2CAPStart,
	}
}

func TestIDPacketRoundTrip(t *testing.T) {
	p := NewID(access.GIAC)
	v := p.Assemble(0, 0)
	if v.Len() != 68 {
		t.Fatalf("ID air bits = %d, want 68", v.Len())
	}
	got, info, err := Parse(v, access.GIAC, 0, 0, access.DefaultCorrelatorThreshold)
	if err != nil || !got.IsID() || info.SyncErrors != 0 {
		t.Fatalf("ID parse failed: %v", err)
	}
	if got.Type() != TypeID {
		t.Fatal("type sentinel wrong")
	}
}

func TestControlPacketRoundTrip(t *testing.T) {
	for _, ty := range []Type{TypeNull, TypePoll} {
		p := &Packet{AccessLAP: testLAP, Header: &Header{AMAddr: 2, Type: ty, ARQN: true}}
		v := p.Assemble(testUAP, testCLK)
		if v.Len() != 126 {
			t.Fatalf("%v air bits = %d, want 126", ty, v.Len())
		}
		got, _, err := Parse(v, testLAP, testUAP, testCLK, 7)
		if err != nil {
			t.Fatalf("%v parse: %v", ty, err)
		}
		h := got.Header
		if h.Type != ty || h.AMAddr != 2 || !h.ARQN || h.SEQN || h.Flow {
			t.Fatalf("%v header mismatch: %+v", ty, h)
		}
	}
}

func TestDataPacketRoundTrip(t *testing.T) {
	cases := []struct {
		ty   Type
		n    int
		bits int
	}{
		{TypeDM1, 17, 72 + 54 + (8+17*8+16+9)/10*15},
		{TypeDH1, 27, 72 + 54 + 8 + 27*8 + 16},
		{TypeDM3, 121, 0},
		{TypeDH3, 183, 0},
		{TypeDM5, 224, 0},
		{TypeDH5, 339, 72 + 54 + 16 + 339*8 + 16},
		{TypeAUX1, 29, 72 + 54 + 8 + 29*8},
	}
	for _, c := range cases {
		p := mkData(c.ty, c.n, uint64(c.n))
		v := p.Assemble(testUAP, testCLK)
		if v.Len() != p.AirBits() {
			t.Fatalf("%v: Assemble len %d != AirBits %d", c.ty, v.Len(), p.AirBits())
		}
		if c.bits != 0 && v.Len() != c.bits {
			t.Fatalf("%v: air bits %d, want %d", c.ty, v.Len(), c.bits)
		}
		got, _, err := Parse(v, testLAP, testUAP, testCLK, 7)
		if err != nil {
			t.Fatalf("%v parse: %v", c.ty, err)
		}
		if got.Header.Type != c.ty || len(got.Payload) != c.n {
			t.Fatalf("%v: got type %v len %d", c.ty, got.Header.Type, len(got.Payload))
		}
		for i := range got.Payload {
			if got.Payload[i] != p.Payload[i] {
				t.Fatalf("%v: payload byte %d differs", c.ty, i)
			}
		}
		if got.LLID != LLIDL2CAPStart {
			t.Fatalf("%v: LLID lost", c.ty)
		}
	}
}

func TestEmptyPayloadRoundTrip(t *testing.T) {
	p := mkData(TypeDM1, 0, 1)
	got, _, err := Parse(p.Assemble(testUAP, testCLK), testLAP, testUAP, testCLK, 7)
	if err != nil || got.Payload != nil {
		t.Fatalf("empty payload: err=%v payload=%v", err, got.Payload)
	}
}

func TestMaxSlotDurations(t *testing.T) {
	// The standard's maximum air times per type (1 bit = 1 us): 366 us
	// for 1-slot packets, 1622/1626 us for DH3/DM3, 2871 us for 5-slot.
	limits := map[Type]int{
		TypeDM1: 366, TypeDH1: 366, TypeAUX1: 366,
		TypeDM3: 1626, TypeDH3: 1622,
		TypeDM5: 2871, TypeDH5: 2871,
	}
	for ty, lim := range limits {
		p := mkData(ty, ty.MaxPayload(), 9)
		if got := p.AirBits(); got > lim {
			t.Errorf("%v max-size packet is %d us > %d us slot budget", ty, got, lim)
		}
	}
	if TypeDM1.Slots() != 1 || TypeDH3.Slots() != 3 || TypeDM5.Slots() != 5 {
		t.Fatal("Slots() wrong")
	}
}

func TestFHSRoundTrip(t *testing.T) {
	f := func(lap uint32, uap uint8, nap uint16, class uint32, am uint8, clk uint32, sr uint8) bool {
		want := &FHSPayload{
			LAP: lap & 0xFFFFFF, UAP: uap, NAP: nap, Class: class & 0xFFFFFF,
			AMAddr: am & 0x7, CLK: clk & 0x0FFFFFFC, SR: sr & 0x3,
		}
		p := &Packet{
			AccessLAP: testLAP,
			Header:    &Header{AMAddr: want.AMAddr, Type: TypeFHS},
			FHS:       want,
		}
		v := p.Assemble(testUAP, testCLK)
		got, _, err := Parse(v, testLAP, testUAP, testCLK, 7)
		if err != nil {
			return false
		}
		g := got.FHS
		return g.LAP == want.LAP && g.UAP == want.UAP && g.NAP == want.NAP &&
			g.Class == want.Class && g.AMAddr == want.AMAddr &&
			g.CLK == want.CLK && g.SR == want.SR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A failing FHS CRC returns no packet, like every other failing stage:
// a half-filled FHS packet must not reach a caller that checks p first.
func TestFHSCRCFailureReturnsNilPacket(t *testing.T) {
	p := &Packet{AccessLAP: testLAP, Header: &Header{Type: TypeFHS},
		FHS: &FHSPayload{LAP: 0x123456, UAP: 0x9A, CLK: 0x1000}}
	v := p.Assemble(testUAP, testCLK)
	// Flip one information bit under valid FEC-2/3 codewords, so the
	// payload decodes cleanly and only the CRC can object.
	body, _, ok := coding.DecodeFEC23(v.Slice(72+54, v.Len()))
	if !ok {
		t.Fatal("clean FHS payload failed FEC decode")
	}
	body.FlipBit(40)
	rx := v.Slice(0, 72+54)
	coding.AppendFEC23(rx, body)
	got, _, err := Parse(rx, testLAP, testUAP, testCLK, 7)
	if !errors.Is(err, ErrCRC) {
		t.Fatalf("err = %v, want ErrCRC", err)
	}
	if got != nil {
		t.Fatal("Parse returned a half-filled FHS packet with ErrCRC")
	}
}

func TestFHSAirLength(t *testing.T) {
	p := &Packet{AccessLAP: testLAP, Header: &Header{Type: TypeFHS}, FHS: &FHSPayload{LAP: 1}}
	if p.AirBits() != 366 {
		t.Fatalf("FHS air bits = %d, want 366", p.AirBits())
	}
}

// TestAssembledLengthMatchesAirBits holds every header type, plus ID,
// to the air time AirBits charges for it: the bits Assemble emits.
// Each type carries the payloads it can: FHS its fields, a voice type
// its exact frame, a data type none, one byte or its maximum, and the
// control and undefined types nothing.
func TestAssembledLengthMatchesAirBits(t *testing.T) {
	check := func(p *Packet) {
		t.Helper()
		if got, want := p.Assemble(testUAP, testCLK).Len(), p.AirBits(); got != want {
			t.Fatalf("%v with %d payload bytes assembles to %d bits, AirBits says %d",
				p.Type(), len(p.Payload), got, want)
		}
	}
	check(NewID(testLAP))
	for ty := Type(0); ty < 16; ty++ {
		lens := []int{0}
		switch {
		case ty == TypeFHS:
			check(&Packet{AccessLAP: testLAP, Header: &Header{Type: ty}, FHS: &FHSPayload{LAP: 1}})
			continue
		case ty.IsSCO():
			lens = []int{ty.MaxPayload()}
		case ty.MaxPayload() > 0:
			lens = []int{0, 1, ty.MaxPayload()}
		}
		for _, n := range lens {
			check(mkData(ty, n, uint64(ty)))
		}
	}
}

func TestWrongLAPRejected(t *testing.T) {
	p := mkData(TypeDH1, 5, 2)
	v := p.Assemble(testUAP, testCLK)
	if _, _, err := Parse(v, 0x00FF00, testUAP, testCLK, 7); !errors.Is(err, ErrAccessCode) {
		t.Fatalf("err = %v, want ErrAccessCode", err)
	}
}

func TestWrongUAPFailsHEC(t *testing.T) {
	p := mkData(TypeDH1, 5, 3)
	v := p.Assemble(testUAP, testCLK)
	if _, _, err := Parse(v, testLAP, testUAP+1, testCLK, 7); !errors.Is(err, ErrHEC) {
		t.Fatalf("err = %v, want ErrHEC", err)
	}
}

func TestWrongClockFailsParse(t *testing.T) {
	// Whitening differs -> header bits scramble -> HEC virtually always
	// fails (or header FEC breaks). Either way the packet must not parse.
	p := mkData(TypeDH1, 5, 4)
	v := p.Assemble(testUAP, testCLK)
	if _, _, err := Parse(v, testLAP, testUAP, testCLK+2, 7); err == nil {
		t.Fatal("packet with wrong whitening clock parsed")
	}
}

func TestHeaderSurvivesFECCorrectableErrors(t *testing.T) {
	p := mkData(TypeDH1, 10, 5)
	v := p.Assemble(testUAP, testCLK)
	// Flip one bit in each of the first 10 header triples (72..126).
	for i := 0; i < 10; i++ {
		v.FlipBit(72 + 3*i)
	}
	got, info, err := Parse(v, testLAP, testUAP, testCLK, 7)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if info.HeaderCorrected != 10 {
		t.Fatalf("HeaderCorrected = %d, want 10", info.HeaderCorrected)
	}
	if got.Header.Type != TypeDH1 {
		t.Fatal("header corrupted despite FEC")
	}
}

func TestDMPayloadSurvivesSingleErrorPerBlock(t *testing.T) {
	p := mkData(TypeDM1, 17, 6)
	v := p.Assemble(testUAP, testCLK)
	payloadStart := 72 + 54
	for b := payloadStart; b+15 <= v.Len(); b += 15 {
		v.FlipBit(b + 7)
	}
	got, info, err := Parse(v, testLAP, testUAP, testCLK, 7)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if info.PayloadFixed == 0 {
		t.Fatal("no payload corrections recorded")
	}
	for i := range got.Payload {
		if got.Payload[i] != p.Payload[i] {
			t.Fatal("payload corrupted despite FEC")
		}
	}
}

func TestDHPayloadErrorFailsCRC(t *testing.T) {
	p := mkData(TypeDH1, 10, 7)
	v := p.Assemble(testUAP, testCLK)
	v.FlipBit(72 + 54 + 20) // one payload bit; DH has no FEC
	if _, _, err := Parse(v, testLAP, testUAP, testCLK, 7); !errors.Is(err, ErrCRC) {
		t.Fatalf("err = %v, want ErrCRC", err)
	}
}

func TestDMPayloadDoubleErrorDetected(t *testing.T) {
	p := mkData(TypeDM1, 17, 8)
	v := p.Assemble(testUAP, testCLK)
	start := 72 + 54
	v.FlipBit(start + 1)
	v.FlipBit(start + 2) // two errors in one 15-bit block
	_, _, err := Parse(v, testLAP, testUAP, testCLK, 7)
	if !errors.Is(err, ErrPayloadFEC) && !errors.Is(err, ErrCRC) {
		t.Fatalf("err = %v, want payload FEC or CRC failure", err)
	}
}

func TestOversizePayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversize payload did not panic")
		}
	}()
	mkData(TypeDM1, 18, 9).Assemble(testUAP, testCLK)
}

func TestTypeStrings(t *testing.T) {
	if TypeID.String() != "ID" || TypeDM1.String() != "DM1" || TypeFHS.String() != "FHS" {
		t.Fatal("String() wrong")
	}
	if TypeHV1.String() != "HV1" {
		t.Fatal("HV1 String() wrong")
	}
	if Type(0x8).String() != "TYPE(8)" {
		t.Fatal("unknown type String() wrong")
	}
}

// Property: any packet that parses cleanly round-trips its header fields.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(am uint8, flow, arqn, seqn bool) bool {
		p := &Packet{
			AccessLAP: testLAP,
			Header:    &Header{AMAddr: am & 7, Type: TypePoll, Flow: flow, ARQN: arqn, SEQN: seqn},
		}
		got, _, err := Parse(p.Assemble(testUAP, testCLK), testLAP, testUAP, testCLK, 7)
		if err != nil {
			return false
		}
		h := got.Header
		return h.AMAddr == am&7 && h.Flow == flow && h.ARQN == arqn && h.SEQN == seqn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mkVoice(t Type, seed uint64) *Packet {
	r := sim.NewRand(seed)
	data := make([]byte, t.MaxPayload())
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	return &Packet{
		AccessLAP: testLAP,
		Header:    &Header{AMAddr: 1, Type: t},
		Payload:   data,
	}
}

func TestHVRoundTrip(t *testing.T) {
	for _, ty := range []Type{TypeHV1, TypeHV2, TypeHV3} {
		p := mkVoice(ty, uint64(ty))
		v := p.Assemble(testUAP, testCLK)
		if v.Len() != 366 {
			t.Fatalf("%v air bits = %d, want 366", ty, v.Len())
		}
		got, _, err := Parse(v, testLAP, testUAP, testCLK, 7)
		if err != nil {
			t.Fatalf("%v parse: %v", ty, err)
		}
		if len(got.Payload) != ty.MaxPayload() {
			t.Fatalf("%v payload len %d", ty, len(got.Payload))
		}
		for i := range got.Payload {
			if got.Payload[i] != p.Payload[i] {
				t.Fatalf("%v payload corrupted at %d", ty, i)
			}
		}
	}
}

func TestHV1SurvivesHeavyErrors(t *testing.T) {
	p := mkVoice(TypeHV1, 1)
	v := p.Assemble(testUAP, testCLK)
	// One error per payload triple: rate-1/3 voice shrugs it off.
	for i := 72 + 54; i+3 <= v.Len(); i += 3 {
		v.FlipBit(i)
	}
	got, info, err := Parse(v, testLAP, testUAP, testCLK, 7)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if info.PayloadFixed == 0 {
		t.Fatal("no corrections recorded")
	}
	for i := range got.Payload {
		if got.Payload[i] != p.Payload[i] {
			t.Fatal("voice corrupted despite FEC 1/3")
		}
	}
}

func TestHV3DeliversCorruptedBitsWithoutError(t *testing.T) {
	p := mkVoice(TypeHV3, 2)
	v := p.Assemble(testUAP, testCLK)
	v.FlipBit(72 + 54 + 10) // payload bit error; HV3 has no protection
	got, _, err := Parse(v, testLAP, testUAP, testCLK, 7)
	if err != nil {
		t.Fatalf("HV3 must deliver despite errors: %v", err)
	}
	diff := false
	for i := range got.Payload {
		if got.Payload[i] != p.Payload[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("flipped bit did not surface in HV3 payload")
	}
}

func TestHV2ErasureOnDoubleBlockError(t *testing.T) {
	p := mkVoice(TypeHV2, 3)
	v := p.Assemble(testUAP, testCLK)
	start := 72 + 54
	v.FlipBit(start + 1)
	v.FlipBit(start + 2)
	if _, _, err := Parse(v, testLAP, testUAP, testCLK, 7); !errors.Is(err, ErrPayloadFEC) {
		t.Fatalf("err = %v, want ErrPayloadFEC erasure", err)
	}
}

func TestHVWrongLengthPanics(t *testing.T) {
	p := &Packet{AccessLAP: testLAP, Header: &Header{Type: TypeHV1}, Payload: []byte{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("short voice frame did not panic")
		}
	}()
	p.Assemble(testUAP, testCLK)
}

func TestIsSCO(t *testing.T) {
	for _, ty := range []Type{TypeHV1, TypeHV2, TypeHV3} {
		if !ty.IsSCO() {
			t.Fatalf("%v must be SCO", ty)
		}
		if ty.Slots() != 1 {
			t.Fatalf("%v must be single slot", ty)
		}
	}
	if TypeDM1.IsSCO() || TypePoll.IsSCO() {
		t.Fatal("ACL/control types must not be SCO")
	}
}
