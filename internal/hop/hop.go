// Package hop implements the Bluetooth 79-channel hop-selection kernel of
// spec 1.2 part B §2.6: the XOR/ADD/PERM5 selection box plus the per-mode
// input mappings for the basic (connection) sequence, the page and
// inquiry trains, the scan sequences and the response sequences. Every
// device in a piconet computes frequencies with this kernel, so master
// and slaves agree on the channel exactly when the standard says they do
// (same address input, same clock bits) — which is what makes the paper's
// piconet-creation experiments meaningful.
package hop

// NumChannels is the number of RF channels in the 2.4 GHz ISM band plan.
const NumChannels = 79

// NumScanFreqs is the length of a page/inquiry scan hopping sequence.
const NumScanFreqs = 32

// TrainSize is the number of distinct frequencies in one page/inquiry
// train (half the 32-frequency sequence).
const TrainSize = 16

// perm5 index wiring of the butterfly network (spec Figure 2.21): stage i
// conditionally exchanges bits index1[i] and index2[i] under control bit
// P[13-i].
var (
	perm5Index1 = [14]int{0, 2, 1, 3, 0, 1, 0, 3, 1, 0, 2, 1, 0, 1}
	perm5Index2 = [14]int{1, 3, 2, 4, 4, 3, 2, 4, 4, 3, 4, 3, 3, 2}
)

// perm5Hi and perm5Lo hold the butterfly factored at its stage
// boundaries. Stages 0-4 take control bits P13-P9 and stages 5-13 take
// P8-P0, so the full permutation is perm5Lo[P8-P0] applied to
// perm5Hi[P13-P9]'s output. Connection-state hop selection runs the
// kernel on every single tune; the two tables (17 KiB) retire the
// 14-stage loop from that path and stay in L1.
var (
	perm5Hi [32][32]uint8
	perm5Lo [512][32]uint8
)

func init() { buildPerm5Tabs(&perm5Hi, &perm5Lo) }

// buildPerm5Tabs fills the two PERM5 tables.
func buildPerm5Tabs(hi *[32][32]uint8, lo *[512][32]uint8) {
	perm5Block(hi[:], 0)
	perm5Block(lo[:], 5)
}

// perm5Block fills t with the butterfly stages first, first+1, ... for
// every setting of their control bits, the first stage's bit highest in
// the row index. It adds one stage at a time, after the ones before:
// row c becomes rows 2c (stage off) and 2c+1 (stage on, which
// exchanges bits a and b by an XOR with both when they differ).
func perm5Block(t [][32]uint8, first int) {
	for z := range t[0] {
		t[0][z] = uint8(z)
	}
	for n, s := 1, first; n < len(t); n, s = 2*n, s+1 {
		a, b := uint(perm5Index1[s]), uint(perm5Index2[s])
		for c := n - 1; c >= 0; c-- {
			row, on := t[c], &t[2*c+1]
			t[2*c] = row
			for z, v := range row {
				if (v>>a^v>>b)&1 != 0 {
					v ^= 1<<a | 1<<b
				}
				on[z] = v
			}
		}
	}
}

// perm5 looks up the butterfly permutation for input z under the 14-bit
// control word (pHigh 5 bits, pLow 9 bits).
func perm5(z uint32, pHigh, pLow uint32) uint32 {
	// The masks keep every index in range, so no bounds check runs.
	return uint32(perm5Lo[pLow&0x1FF][perm5Hi[pHigh&0x1F][z&0x1F]&0x1F])
}

// bank maps the kernel's final adder output to an RF channel: even
// channels listed first, then odd (spec §2.6.3 register bank).
func bank(i uint32) int { return int((2 * i) % NumChannels) }

// Selector computes hop frequencies for one address. The address input
// is the 28-bit quantity the spec derives from the device address: LAP
// bits 0-23 plus the 4 least significant UAP bits at positions 24-27.
type Selector struct {
	a1 uint32 // address bits 27-23
	b  uint32 // address bits 22-19
	c1 uint32 // address bits 8,6,4,2,0
	d1 uint32 // address bits 18-10
	e  uint32 // address bits 13,11,9,7,5,3,1

	// trainCache memoises the page/inquiry/scan/response selections,
	// which — unlike the basic sequence — feed the kernel nothing but
	// the 5-bit phase X and Y1, so each of the 64 inputs is computed at
	// most once per selector. Entries store frequency+1 (0 = unfilled).
	trainCache [NumScanFreqs][2]int8
}

// NewSelector precomputes the kernel's address-derived inputs.
func NewSelector(addr28 uint32) *Selector {
	s := &Selector{
		a1: (addr28 >> 23) & 0x1F,
		b:  (addr28 >> 19) & 0x0F,
		d1: (addr28 >> 10) & 0x1FF,
	}
	for i := 0; i < 5; i++ {
		s.c1 |= ((addr28 >> (2 * i)) & 1) << i
	}
	for i := 0; i < 7; i++ {
		s.e |= ((addr28 >> (2*i + 1)) & 1) << i
	}
	return s
}

// Addr28 builds the kernel address input from a LAP and UAP.
func Addr28(lap uint32, uap uint8) uint32 {
	return lap&0xFFFFFF | uint32(uap&0x0F)<<24
}

// kernel runs the selection box.
func (s *Selector) kernel(x, y1, a, b, c, d, e, f uint32) int {
	z := ((x + a) % 32) ^ b
	perm := perm5(z, (y1*0x1F)^c, d)
	return bank((perm + e + f + 32*y1) % NumChannels)
}

// trainKernel runs the selection box for the clock-independent page /
// inquiry / scan / response mappings (address inputs un-XORed, F = 0)
// through the per-phase cache.
func (s *Selector) trainKernel(x, y1 uint32) int {
	slot := &s.trainCache[x%NumScanFreqs][y1&1]
	if *slot == 0 {
		*slot = int8(s.kernel(x%NumScanFreqs, y1&1, s.a1, s.b, s.c1, s.d1, s.e, 0) + 1)
	}
	return int(*slot) - 1
}

// Basic returns the connection-state (basic) hopping frequency for the
// 28-bit piconet clock CLK. Master transmit slots have CLK1 = 0.
func (s *Selector) Basic(clk uint32) int {
	x := (clk >> 2) & 0x1F
	y1 := (clk >> 1) & 1
	a := (s.a1 ^ (clk >> 21)) & 0x1F
	c := (s.c1 ^ (clk >> 16)) & 0x1F
	d := (s.d1 ^ (clk >> 7)) & 0x1FF
	f := (16 * ((clk >> 7) & 0x1FFFFF)) % NumChannels
	return s.kernel(x, y1, a, s.b, c, d, s.e, f)
}

// trainKoffset returns the phase offset selecting the A or B train.
func trainKoffset(trainA bool) uint32 {
	if trainA {
		return 24
	}
	return 8
}

// trainX computes the page/inquiry train phase from a clock: X = [CLK16-12
// + koffset + (CLK4-2,0 − CLK16-12) mod 16] mod 32 (spec §2.6.4.2). The
// CLK4-2,0 term steps twice per slot so two IDs go out per transmit slot.
func trainX(clk uint32, trainA bool) uint32 {
	hi := (clk >> 12) & 0x1F
	sweep := ((clk>>2)&0x7)<<1 | clk&1 // bits 4,3,2 then bit 0
	return (hi + trainKoffset(trainA) + ((sweep - hi) & 0x0F)) % 32
}

// Page returns the frequency the paging master transmits its ID on, from
// its estimate CLKE of the target's clock.
func (s *Selector) Page(clke uint32, trainA bool) int {
	return s.trainKernel(trainX(clke, trainA), 0)
}

// PageResp returns the frequency of the slave's page response (and the
// master's listening frequency) paired with the train phase of the ID
// that elicited it: same X, Y1 = 1.
func (s *Selector) PageResp(clke uint32, trainA bool) int {
	return s.trainKernel(trainX(clke, trainA), 1)
}

// Scan returns the page-scan (or, with the GIAC selector, inquiry-scan)
// listening frequency: X = CLKN16-12, which moves every 1.28 s.
func (s *Selector) Scan(clkn uint32) int {
	return s.trainKernel((clkn>>12)&0x1F, 0)
}

// RespForX returns the response frequency for an explicit train phase;
// the scanner uses its own scan phase here, which equals the sender's
// train phase whenever the ID was heard at all.
func (s *Selector) RespForX(x uint32) int {
	return s.trainKernel(x, 1)
}

// ScanX returns the scan phase for a native clock, exported so the scan
// state machines can pair Scan with RespForX.
func ScanX(clkn uint32) uint32 { return (clkn >> 12) & 0x1F }

// TrainPhase exposes trainX for the paging/inquiring state machines that
// must remember which phase each transmitted ID used.
func TrainPhase(clk uint32, trainA bool) uint32 { return trainX(clk, trainA) }
