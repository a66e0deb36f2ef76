//go:build poison

package bits

// Poisoning reports whether released buffers are poisoned (see Poison).
const Poisoning = true
