package bits

// Poison overwrites a released vector when the module is built with the
// poison tag (go test -tags poison), and does nothing otherwise. Every
// pooled vector and scratch buffer of the air path is poisoned at the
// instant its owner gives it back, so a reader that kept it past its
// release reads garbage and a golden fails, instead of the stale bits
// of its last packet passing by luck. The vector keeps its length and
// the zero bits past Len(), so such a reader fails on content, not on a
// range check.
func Poison(v *Vec) {
	if !Poisoning || v == nil || len(v.w) == 0 { // nil, or a zero Vec never Reset
		return
	}
	full := v.n / 64
	for k := 0; k < full; k++ {
		v.w[k] = ^v.w[k]
	}
	v.w[full] ^= 1<<(v.n%64) - 1
}

// PoisonBytes is Poison for a released byte buffer: every byte is
// inverted.
func PoisonBytes(b []byte) {
	if !Poisoning {
		return
	}
	for i := range b {
		b[i] = ^b[i]
	}
}
