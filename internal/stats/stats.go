// Package stats provides the analysis substrate of the reproduction:
// periodic histograms, WHAM-based free-energy surfaces (substituting for
// the paper's vFEP maximum-likelihood estimator), and summary
// statistics. It regenerates the paper's Figure 4 from real umbrella
// trajectories.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation (0 for fewer than 2 points).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Hist2D is a 2D histogram over the periodic torus (-π, π]².
type Hist2D struct {
	Bins   int
	Counts [][]float64
	total  float64
}

// NewHist2D allocates a bins×bins periodic histogram.
func NewHist2D(bins int) *Hist2D {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: non-positive bin count %d", bins))
	}
	c := make([][]float64, bins)
	for i := range c {
		c[i] = make([]float64, bins)
	}
	return &Hist2D{Bins: bins, Counts: c}
}

// binOf maps an angle to a bin index.
func (h *Hist2D) binOf(a float64) int {
	// Map (-π, π] to [0, bins).
	f := (a + math.Pi) / (2 * math.Pi)
	i := int(f * float64(h.Bins))
	if i < 0 {
		i = 0
	}
	if i >= h.Bins {
		i = h.Bins - 1
	}
	return i
}

// Add accumulates a sample with the given weight.
func (h *Hist2D) Add(x, y, w float64) {
	h.Counts[h.binOf(x)][h.binOf(y)] += w
	h.total += w
}

// BinCenter returns the angle at the centre of bin i.
func (h *Hist2D) BinCenter(i int) float64 {
	return -math.Pi + (float64(i)+0.5)*2*math.Pi/float64(h.Bins)
}

// FES is a free-energy surface on a periodic 2D grid, in kcal/mol,
// shifted so the minimum is zero. Empty bins hold +Inf.
type FES struct {
	Bins int
	F    [][]float64
}

// FromHist converts a probability histogram to a free-energy surface by
// Boltzmann inversion at temperature tK: F = -kT ln p, min-shifted.
func FromHist(h *Hist2D, tK float64) *FES {
	kT := 0.0019872041 * tK
	f := make([][]float64, h.Bins)
	minF := math.Inf(1)
	for i := range f {
		f[i] = make([]float64, h.Bins)
		for j := range f[i] {
			c := h.Counts[i][j]
			if c <= 0 || h.total <= 0 {
				f[i][j] = math.Inf(1)
				continue
			}
			f[i][j] = -kT * math.Log(c/h.total)
			if f[i][j] < minF {
				minF = f[i][j]
			}
		}
	}
	if !math.IsInf(minF, 1) {
		for i := range f {
			for j := range f[i] {
				if !math.IsInf(f[i][j], 1) {
					f[i][j] -= minF
				}
			}
		}
	}
	return &FES{Bins: h.Bins, F: f}
}

// MaxFinite returns the largest finite free energy.
func (s *FES) MaxFinite() float64 {
	m := 0.0
	for a := range s.F {
		for b := range s.F[a] {
			if !math.IsInf(s.F[a][b], 1) && s.F[a][b] > m {
				m = s.F[a][b]
			}
		}
	}
	return m
}

// CoveredFraction returns the fraction of bins with finite free energy
// (sampled at least once).
func (s *FES) CoveredFraction() float64 {
	n, cov := 0, 0
	for a := range s.F {
		for b := range s.F[a] {
			n++
			if !math.IsInf(s.F[a][b], 1) {
				cov++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(cov) / float64(n)
}

// BasinCount returns the number of local minima below the given free
// energy threshold, using 8-neighbour comparison on the periodic grid.
// It quantifies the multi-basin structure of a Ramachandran-like map.
func (s *FES) BasinCount(threshold float64) int {
	n := 0
	b := s.Bins
	at := func(i, j int) float64 {
		return s.F[((i%b)+b)%b][((j%b)+b)%b]
	}
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			v := s.F[i][j]
			if math.IsInf(v, 1) || v > threshold {
				continue
			}
			isMin := true
			for di := -1; di <= 1 && isMin; di++ {
				for dj := -1; dj <= 1; dj++ {
					if di == 0 && dj == 0 {
						continue
					}
					if at(i+di, j+dj) < v {
						isMin = false
						break
					}
				}
			}
			if isMin {
				n++
			}
		}
	}
	return n
}

// Render draws the surface as an ASCII contour map (coarse, for CLI
// output), with rows spanning ψ top-to-bottom and columns φ.
func (s *FES) Render(levels string) string {
	if levels == "" {
		levels = " .:-=+*#%@"
	}
	maxF := s.MaxFinite()
	if maxF <= 0 {
		maxF = 1
	}
	out := make([]byte, 0, (s.Bins+1)*s.Bins)
	for j := s.Bins - 1; j >= 0; j-- {
		for i := 0; i < s.Bins; i++ {
			v := s.F[i][j]
			if math.IsInf(v, 1) {
				out = append(out, '?')
				continue
			}
			idx := int(v / maxF * float64(len(levels)-1))
			if idx >= len(levels) {
				idx = len(levels) - 1
			}
			out = append(out, levels[idx])
		}
		out = append(out, '\n')
	}
	return string(out)
}
