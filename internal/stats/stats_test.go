package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/md"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := Std(xs); math.Abs(s-2.138) > 0.01 {
		t.Fatalf("Std = %v, want ~2.138", s)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("empty/degenerate inputs must give 0")
	}
}

func TestHist2DBinning(t *testing.T) {
	h := NewHist2D(4)
	h.Add(-math.Pi+0.01, -math.Pi+0.01, 1) // first bin
	h.Add(math.Pi-0.01, math.Pi-0.01, 2)   // last bin
	if h.Counts[0][0] != 1 {
		t.Fatalf("first bin count %v", h.Counts[0][0])
	}
	if h.Counts[3][3] != 2 {
		t.Fatalf("last bin count %v", h.Counts[3][3])
	}
	if h.total != 3 {
		t.Fatalf("total %v, want 3", h.total)
	}
}

func TestHist2DBinCenters(t *testing.T) {
	h := NewHist2D(8)
	for i := 0; i < 8; i++ {
		c := h.BinCenter(i)
		if h.binOf(c) != i {
			t.Fatalf("bin center %v maps to bin %d, want %d", c, h.binOf(c), i)
		}
	}
}

// Property: binOf always lands in range for any angle.
func TestPropertyBinRange(t *testing.T) {
	h := NewHist2D(13)
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		b := h.binOf(math.Mod(a, math.Pi))
		return b >= 0 && b < 13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromHistBoltzmannInversion(t *testing.T) {
	// Two bins populated 10:1 at 300K: ΔF = kT ln 10.
	h := NewHist2D(2)
	h.Add(-1, -1, 10)
	h.Add(1, 1, 1)
	f := FromHist(h, 300)
	kT := 0.0019872041 * 300
	min, i, j := f.Min()
	if min != 0 {
		t.Fatalf("min %v, want 0 after shift", min)
	}
	if i != 0 || j != 0 {
		t.Fatalf("min at (%d,%d), want (0,0)", i, j)
	}
	want := kT * math.Log(10)
	if math.Abs(f.F[1][1]-want) > 1e-9 {
		t.Fatalf("ΔF = %v, want %v", f.F[1][1], want)
	}
	// Empty bins are +Inf.
	if !math.IsInf(f.F[0][1], 1) {
		t.Fatal("empty bin not +Inf")
	}
}

func TestFESCoverageAndRender(t *testing.T) {
	h := NewHist2D(4)
	h.Add(0, 0, 5)
	f := FromHist(h, 300)
	if c := f.CoveredFraction(); math.Abs(c-1.0/16) > 1e-9 {
		t.Fatalf("coverage %v, want 1/16", c)
	}
	img := f.Render("")
	if !strings.Contains(img, "?") {
		t.Fatal("render lacks empty-bin markers")
	}
	if len(strings.Split(strings.TrimSpace(img), "\n")) != 4 {
		t.Fatal("render row count wrong")
	}
}

func TestBasinCount(t *testing.T) {
	// Construct a surface with exactly two basins.
	f := &FES{Bins: 8, F: make([][]float64, 8)}
	for i := range f.F {
		f.F[i] = make([]float64, 8)
		for j := range f.F[i] {
			f.F[i][j] = 10
		}
	}
	f.F[1][1] = 0
	f.F[5][5] = 0.5
	if n := f.BasinCount(5); n != 2 {
		t.Fatalf("basins = %d, want 2", n)
	}
	if n := f.BasinCount(0.1); n != 1 {
		t.Fatalf("basins below 0.1 = %d, want 1", n)
	}
}

// mcSample draws Metropolis samples of (phi, psi) from U0 + window bias.
func mcSample(u0 func(phi, psi float64) float64, w UmbrellaWindow, tK float64, n int, rng *rand.Rand) ([]float64, []float64) {
	beta := 1 / (0.0019872041 * tK)
	phi, psi := w.PhiCenter, w.PsiCenter
	e := u0(phi, psi) + w.biasAt(phi, psi)
	var phis, psis []float64
	for i := 0; i < n*10; i++ {
		np := md.WrapAngle(phi + (rng.Float64() - 0.5))
		nq := md.WrapAngle(psi + (rng.Float64() - 0.5))
		ne := u0(np, nq) + w.biasAt(np, nq)
		if ne <= e || rng.Float64() < math.Exp(-beta*(ne-e)) {
			phi, psi, e = np, nq, ne
		}
		if i%10 == 9 {
			phis = append(phis, phi)
			psis = append(psis, psi)
		}
	}
	return phis, psis
}

func TestWHAMRecoversKnownSurface(t *testing.T) {
	// Reference potential with a single cosine well per axis.
	u0 := func(phi, psi float64) float64 {
		return 1.5*(1-math.Cos(phi)) + 1.0*(1-math.Cos(psi-1))
	}
	const tK = 300
	rng := rand.New(rand.NewSource(12))
	var windows []UmbrellaWindow
	const nw = 6
	for i := 0; i < nw; i++ {
		for j := 0; j < nw; j++ {
			w := UmbrellaWindow{
				PhiCenter: -math.Pi + 2*math.Pi*float64(i)/nw,
				PsiCenter: -math.Pi + 2*math.Pi*float64(j)/nw,
				KPhi:      2.0,
				KPsi:      2.0,
			}
			w.Phi, w.Psi = mcSample(u0, w, tK, 400, rng)
			windows = append(windows, w)
		}
	}
	fes, err := WHAM2D(windows, 24, tK, 2000, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if fes.CoveredFraction() < 0.95 {
		t.Fatalf("coverage %v too low", fes.CoveredFraction())
	}
	// The recovered minimum must sit near (0, 1): the u0 minimum.
	_, i, j := fes.Min()
	h := NewHist2D(24)
	phiMin, psiMin := h.BinCenter(i), h.BinCenter(j)
	if math.Abs(md.WrapAngle(phiMin-0)) > 0.6 || math.Abs(md.WrapAngle(psiMin-1)) > 0.6 {
		t.Fatalf("FES minimum at (%.2f, %.2f), want near (0, 1)", phiMin, psiMin)
	}
	// Check relative free energies against u0 on well-sampled bins.
	var diffs []float64
	for a := 0; a < 24; a++ {
		for b := 0; b < 24; b++ {
			if math.IsInf(fes.F[a][b], 1) || fes.F[a][b] > 3 {
				continue
			}
			ref := u0(h.BinCenter(a), h.BinCenter(b)) - u0(phiMin, psiMin)
			diffs = append(diffs, fes.F[a][b]-ref)
		}
	}
	if len(diffs) < 20 {
		t.Fatalf("too few well-sampled bins: %d", len(diffs))
	}
	if s := Std(diffs); s > 0.5 {
		t.Fatalf("FES deviates from reference: std %v kcal/mol", s)
	}
}

func TestWHAMErrors(t *testing.T) {
	if _, err := WHAM2D(nil, 10, 300, 10, 1e-6); err == nil {
		t.Error("empty windows accepted")
	}
	if _, err := WHAM2D([]UmbrellaWindow{{}}, 10, -3, 10, 1e-6); err == nil {
		t.Error("negative temperature accepted")
	}
	if _, err := WHAM2D([]UmbrellaWindow{{}}, 10, 300, 10, 1e-6); err == nil {
		t.Error("windows without samples accepted")
	}
}

func TestWHAMSingleUnbiasedWindowMatchesInversion(t *testing.T) {
	// With one unbiased window, WHAM must reduce to Boltzmann inversion.
	rng := rand.New(rand.NewSource(3))
	w := UmbrellaWindow{} // no bias
	u0 := func(phi, psi float64) float64 { return 2 * (1 - math.Cos(phi)) }
	w.Phi, w.Psi = mcSample(u0, w, 300, 2000, rng)
	fes, err := WHAM2D([]UmbrellaWindow{w}, 12, 300, 500, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHist2D(12)
	for i := range w.Phi {
		h.Add(w.Phi[i], w.Psi[i], 1)
	}
	direct := FromHist(h, 300)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			a, b := fes.F[i][j], direct.F[i][j]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("coverage mismatch at (%d,%d)", i, j)
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-6 {
				t.Fatalf("bin (%d,%d): WHAM %v vs inversion %v", i, j, a, b)
			}
		}
	}
}
