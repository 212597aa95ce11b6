package stats

import "math"

// Min returns the minimum free energy (0 after shifting) and its bin.
func (s *FES) Min() (f float64, i, j int) {
	f = math.Inf(1)
	for a := range s.F {
		for b := range s.F[a] {
			if s.F[a][b] < f {
				f, i, j = s.F[a][b], a, b
			}
		}
	}
	return f, i, j
}
