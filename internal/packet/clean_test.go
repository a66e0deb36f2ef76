package packet

import (
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/sim"
)

// fuzzPacket builds a packet of header type ty (16 = ID) from raw fuzz
// inputs: header and FHS fields deliberately outside their bit widths,
// and a payload of n bytes cut to what the type carries (exactly its
// size for voice).
func fuzzPacket(ty, am, flags, llid uint8, n uint16, fill uint64, lap uint32, fa, fb uint64, fclk uint32) *Packet {
	ty %= 17
	if ty == 16 {
		return NewID(lap)
	}
	t := Type(ty)
	size := 0
	switch {
	case t.IsSCO():
		size = t.MaxPayload()
	case t.MaxPayload() > 0:
		size = int(n) % (t.MaxPayload() + 1)
	}
	r := sim.NewRand(fill)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	p := &Packet{
		AccessLAP: lap,
		Header:    &Header{AMAddr: am, Type: t, Flow: flags&1 != 0, ARQN: flags&2 != 0, SEQN: flags&4 != 0},
		Payload:   data,
		LLID:      llid,
		PFlow:     flags&8 != 0,
	}
	if t == TypeFHS {
		p.FHS = &FHSPayload{
			LAP: uint32(fa), UAP: uint8(fa >> 32), NAP: uint16(fa >> 40), SR: uint8(fa >> 56),
			Class: uint32(fb), AMAddr: uint8(fb >> 32), CLK: fclk,
		}
	}
	return p
}

// FuzzCleanMatchesParse pins the clean-air shortcut to the bit path it
// replaces: for every packet type, header and FHS fields, payload
// length, LAP, UAP, clock and correlator threshold, Codec.Clean returns
// exactly what Parse(Assemble(...)) returns (packet, quality report and
// error), and a held copy assembles to the original's bits. The codecs
// persist across inputs, so state a previous packet left behind must
// not leak into the next result.
func FuzzCleanMatchesParse(f *testing.F) {
	for ty := uint8(0); ty <= 16; ty++ {
		f.Add(ty, uint8(3), uint8(5), uint8(2), uint16(500), uint64(ty), uint32(0x9E8B33), uint8(0x47), uint32(0x155),
			uint64(0x5A12349E8B33), uint64(0x120041C), uint32(0x2A5F3C4), int8(7))
		f.Add(ty, uint8(0xFF), uint8(0xFF), uint8(0xFF), uint16(0), uint64(ty)+99, uint32(0xFFFFFFFF), uint8(0xFF), uint32(0xFFFFFFFF),
			^uint64(0), ^uint64(0), ^uint32(0), int8(0))
	}
	f.Add(uint8(TypeDM1), uint8(1), uint8(0), uint8(1), uint16(17), uint64(1), uint32(0x21043A), uint8(1), uint32(2),
		uint64(0), uint64(0), uint32(0), int8(-1))
	var parsed, cleaned, held, asm Codec
	f.Fuzz(func(t *testing.T, ty, am, flags, llid uint8, n uint16, fill uint64, lap uint32, uap uint8, clk uint32,
		fa, fb uint64, fclk uint32, thr int8) {
		p := fuzzPacket(ty, am, flags, llid, n, fill, lap, fa, fb, fclk)
		air := p.Assemble(uap, clk)
		wantP, wantInfo, wantErr := parsed.Parse(air, p.AccessLAP, uap, clk, int(thr))
		gotP, gotInfo, gotErr := cleaned.Clean(p, int(thr))
		if gotErr != wantErr || *gotInfo != *wantInfo || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("%v: Clean = %+v %+v %v, Parse(Assemble) = %+v %+v %v",
				p.Type(), gotP, *gotInfo, gotErr, wantP, *wantInfo, wantErr)
		}

		h := held.Hold(p)
		if h == p || (p.Header != nil && h.Header == p.Header) || (p.FHS != nil && h.FHS == p.FHS) ||
			(len(p.Payload) > 0 && &h.Payload[0] == &p.Payload[0]) {
			t.Fatal("Hold shares storage with the original")
		}
		out := bits.NewVec(0)
		asm.Assemble(out, h, uap, clk)
		if !out.Equal(air) {
			t.Fatalf("%v: held copy assembles to different bits", p.Type())
		}
	})
}
