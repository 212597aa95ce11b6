package stats

import (
	"fmt"
	"math"

	"repro/internal/md"
)

// UmbrellaWindow is the sampled data of one umbrella window: harmonic
// restraints on φ and ψ (E = K·wrap(x-c)², matching the MD engine's
// restraint convention) plus the torsion samples collected under them.
type UmbrellaWindow struct {
	PhiCenter, PsiCenter float64
	KPhi, KPsi           float64 // kcal/mol/rad²; 0 disables that axis
	Phi, Psi             []float64
}

// Samples returns the number of (φ, ψ) samples.
func (w UmbrellaWindow) Samples() int {
	if len(w.Phi) < len(w.Psi) {
		return len(w.Phi)
	}
	return len(w.Psi)
}

// biasAt evaluates the window's bias at a grid point.
func (w UmbrellaWindow) biasAt(phi, psi float64) float64 {
	e := 0.0
	if w.KPhi > 0 {
		d := md.WrapAngle(phi - w.PhiCenter)
		e += w.KPhi * d * d
	}
	if w.KPsi > 0 {
		d := md.WrapAngle(psi - w.PsiCenter)
		e += w.KPsi * d * d
	}
	return e
}

// WHAM2D computes the unbiased 2D free-energy surface from umbrella
// windows by the standard self-consistent WHAM iteration — the
// maximum-likelihood multistate estimator (our substitute for vFEP,
// which is likewise a maximum-likelihood FES method). The returned
// surface is min-shifted to zero.
func WHAM2D(windows []UmbrellaWindow, bins int, tK float64, maxIter int, tol float64) (*FES, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("stats: WHAM needs at least one window")
	}
	if tK <= 0 {
		return nil, fmt.Errorf("stats: non-positive temperature %g", tK)
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	beta := 1 / (0.0019872041 * tK)
	nb := bins * bins

	// Per-window histograms and sample counts on the shared grid.
	nK := make([]float64, len(windows))
	hist := make([][]float64, len(windows))
	anySample := false
	for k, w := range windows {
		hist[k] = make([]float64, nb)
		h := NewHist2D(bins)
		m := w.Samples()
		for i := 0; i < m; i++ {
			h.Add(w.Phi[i], w.Psi[i], 1)
		}
		for i := 0; i < bins; i++ {
			for j := 0; j < bins; j++ {
				hist[k][i*bins+j] = h.Counts[i][j]
			}
		}
		nK[k] = float64(m)
		if m > 0 {
			anySample = true
		}
	}
	if !anySample {
		return nil, fmt.Errorf("stats: WHAM windows contain no samples")
	}

	// Precompute bias Boltzmann factors on the grid.
	expBias := make([][]float64, len(windows))
	ref := NewHist2D(bins)
	for k, w := range windows {
		expBias[k] = make([]float64, nb)
		for i := 0; i < bins; i++ {
			for j := 0; j < bins; j++ {
				expBias[k][i*bins+j] = math.Exp(-beta * w.biasAt(ref.BinCenter(i), ref.BinCenter(j)))
			}
		}
	}

	// Total counts per bin.
	num := make([]float64, nb)
	for k := range windows {
		for b := 0; b < nb; b++ {
			num[b] += hist[k][b]
		}
	}

	// Self-consistent iteration on the window free energies f_k
	// (stored as exp(+beta f_k) normalisation factors).
	fK := make([]float64, len(windows))
	prob := make([]float64, nb)
	for iter := 0; iter < maxIter; iter++ {
		for b := 0; b < nb; b++ {
			den := 0.0
			for k := range windows {
				den += nK[k] * math.Exp(beta*fK[k]) * expBias[k][b]
			}
			if den > 0 {
				prob[b] = num[b] / den
			} else {
				prob[b] = 0
			}
		}
		maxShift := 0.0
		for k := range windows {
			z := 0.0
			for b := 0; b < nb; b++ {
				z += prob[b] * expBias[k][b]
			}
			var newF float64
			if z > 0 {
				newF = -math.Log(z) / beta
			}
			if d := math.Abs(newF - fK[k]); d > maxShift {
				maxShift = d
			}
			fK[k] = newF
		}
		if maxShift < tol {
			break
		}
	}

	// Normalise and invert to free energies.
	total := 0.0
	for _, p := range prob {
		total += p
	}
	fes := &FES{Bins: bins, F: make([][]float64, bins)}
	minF := math.Inf(1)
	for i := 0; i < bins; i++ {
		fes.F[i] = make([]float64, bins)
		for j := 0; j < bins; j++ {
			p := prob[i*bins+j]
			if p <= 0 || total <= 0 {
				fes.F[i][j] = math.Inf(1)
				continue
			}
			fes.F[i][j] = -math.Log(p/total) / beta
			if fes.F[i][j] < minF {
				minF = fes.F[i][j]
			}
		}
	}
	if !math.IsInf(minF, 1) {
		for i := range fes.F {
			for j := range fes.F[i] {
				if !math.IsInf(fes.F[i][j], 1) {
					fes.F[i][j] -= minF
				}
			}
		}
	}
	return fes, nil
}
