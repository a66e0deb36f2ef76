package access

import (
	"testing"

	"repro/internal/bits"
)

// TestAppendCodeMatchesCode holds the direct-fill code builder to a
// field-by-field AppendUint construction, trailer and bare forms, for
// LAPs exercising both Barker variants.
func TestAppendCodeMatchesCode(t *testing.T) {
	laps := []uint32{0x000000, 0x9E8B33, 0xFFFFFF, 0x123456, 0xABCDEF}
	for _, lap := range laps {
		for _, trailer := range []bool{false, true} {
			sync := SyncWord(lap)
			n := 68
			if trailer {
				n = 72
			}
			want := bits.NewVec(n)
			want.AppendUint(preambleFor(sync), 4)
			want.AppendUint(sync, 64)
			if trailer {
				want.AppendUint(trailerFor(sync), 4)
			}
			got := Code(lap, trailer)
			if !got.Equal(want) {
				t.Fatalf("lap=%#x trailer=%v: Code diverges from reference build", lap, trailer)
			}
			// Appending onto a non-empty vector must not disturb the prefix.
			pre := bits.FromBools(true, false, true)
			app := pre.Clone()
			AppendCode(app, lap, trailer)
			ref := pre.Clone()
			ref.AppendVec(want)
			if !app.Equal(ref) {
				t.Fatalf("lap=%#x trailer=%v: AppendCode broke the prefix", lap, trailer)
			}
		}
	}
}

// TestCodeReturnsFreshVectors: callers (tests, the channel's noise
// model) mutate returned vectors, so Code must never hand out shared
// storage.
func TestCodeReturnsFreshVectors(t *testing.T) {
	a := Code(0x123456, false)
	a.FlipBit(10)
	b := Code(0x123456, false)
	if a.Equal(b) {
		t.Fatal("Code returned shared storage; mutation leaked into the next call")
	}
}
