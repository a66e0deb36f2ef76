//go:build !poison

package baseband

import "repro/internal/packet"

// cleanCheck is empty outside the poison build (see
// cleancheck_poison.go).
type cleanCheck struct{}

// checkClean cross-checks the clean-air shortcut in the poison build
// only.
func (d *Device) checkClean(*airBuf, uint32, uint8, uint32, *packet.Packet, *packet.RxInfo, error) {}
