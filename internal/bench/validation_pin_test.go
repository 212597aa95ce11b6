package bench

import (
	"hash/fnv"
	"math"
	"testing"
)

// TestFig4ValidationPinned pins a reduced Figure 4 run bit for bit: the
// report's slot fingerprint and every float of its free-energy
// surfaces, hashed. The expected values were written by the
// Fig4Validation that built its own dipeptide and local runtime; a
// mismatch means the run's assembly changed a bit (the base state, the
// engine's options or the runtime), so fix the code, never re-pin.
// Flipping the engine's SampleEvery from 10 to 11 fails it, and so
// does a base state minimised for 20 steps in place of 2000.
func TestFig4ValidationPinned(t *testing.T) {
	opts := DefaultValidationOptions()
	opts.TWindows, opts.UWindows = 2, 2
	opts.StepsPerCycle, opts.Cycles = 100, 3
	opts.Bins = 8
	opts.Workers = 2
	res, _, err := Fig4Validation(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, s := range res.Surfaces {
		for _, row := range s.F {
			for _, f := range row {
				u := math.Float64bits(f)
				for i := range b {
					b[i] = byte(u >> (8 * i))
				}
				h.Write(b[:])
			}
		}
	}
	const (
		wantSlots uint64 = 0xfbaed7290ad26742
		wantFES   uint64 = 0x2401292ae9fb9ae3
	)
	if got := res.Report.SlotFingerprint; got != wantSlots {
		t.Errorf("slot fingerprint %#016x, want %#016x", got, wantSlots)
	}
	if got := h.Sum64(); got != wantFES {
		t.Errorf("FES bits hash %#016x, want %#016x", got, wantFES)
	}
}
