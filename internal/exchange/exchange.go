// Package exchange implements the replica-exchange acceptance criteria,
// nearest-neighbour pairing and multi-dimensional replica grouping used
// by the RepEx core. It corresponds to the exchange procedures of RepEx's
// Remote Application Modules (RAM).
//
// Three exchange types are supported, matching the paper: temperature
// (T-REMD), umbrella/Hamiltonian (U-REMD) and salt concentration
// (S-REMD). T-REMD needs only the two replicas' own energies; U- and
// S-REMD are Hamiltonian exchanges requiring the 2x2 cross-energy matrix
// (each replica's coordinates evaluated under both parameter sets). For
// S-REMD those cross energies come from additional single-point-energy
// tasks run by the MD engine, which is why the paper's S exchange is an
// order of magnitude more expensive.
package exchange

import (
	"fmt"
	"math"
	"math/rand"
)

// Type identifies an exchange dimension type.
type Type int

const (
	// Temperature exchange (T).
	Temperature Type = iota
	// Umbrella (Hamiltonian) exchange (U).
	Umbrella
	// Salt concentration exchange (S).
	Salt
	// PH is constant-pH exchange (H), one of the paper's named
	// extensions ("a number of additional exchange parameters can be
	// added ... for example pH exchange", §5).
	PH
)

// Code returns the paper's one-letter code: T, U or S.
func (t Type) Code() string {
	switch t {
	case Temperature:
		return "T"
	case Umbrella:
		return "U"
	case Salt:
		return "S"
	case PH:
		return "H"
	default:
		return "?"
	}
}

// String returns a human-readable name.
func (t Type) String() string {
	switch t {
	case Temperature:
		return "temperature"
	case Umbrella:
		return "umbrella"
	case Salt:
		return "salt"
	case PH:
		return "pH"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseType converts a one-letter code to a Type.
func ParseType(code string) (Type, error) {
	switch code {
	case "T", "t":
		return Temperature, nil
	case "U", "u":
		return Umbrella, nil
	case "S", "s":
		return Salt, nil
	case "H", "h", "pH", "PH":
		return PH, nil
	default:
		return 0, fmt.Errorf("exchange: unknown type code %q (want T, U or S)", code)
	}
}

// AcceptTemperature returns the Metropolis acceptance probability of a
// temperature swap between replicas with inverse temperatures betaI,
// betaJ and potential energies eI, eJ:
//
//	P = min(1, exp[(betaI - betaJ)(eI - eJ)])
func AcceptTemperature(betaI, betaJ, eI, eJ float64) float64 {
	return pClamp(math.Exp((betaI - betaJ) * (eI - eJ)))
}

// AcceptHamiltonian returns the Metropolis acceptance probability for a
// general Hamiltonian (umbrella or salt) exchange. eAB is the potential
// of replica B's coordinates evaluated under replica A's parameters:
//
//	Delta = betaI*(eIJ - eII) + betaJ*(eJI - eJJ)
//	P     = min(1, exp(-Delta))
func AcceptHamiltonian(betaI, betaJ, eII, eIJ, eJI, eJJ float64) float64 {
	delta := betaI*(eIJ-eII) + betaJ*(eJI-eJJ)
	return pClamp(math.Exp(-delta))
}

func pClamp(p float64) float64 {
	if math.IsNaN(p) {
		return 0
	}
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// Pair is a candidate exchange between two replica IDs.
type Pair struct{ I, J int }

// AppendNeighborPairs appends the nearest-neighbour pairs of an ordered
// group for the given sweep to dst and returns the extended slice. Even
// sweeps pair (0,1)(2,3)...; odd sweeps pair (1,2)(3,4)...; together
// consecutive sweeps attempt every adjacent pair, the standard
// alternating scheme of synchronous REMD. The storage is the caller's,
// so a hot loop building the pair lists of many groups per exchange
// event can reuse one flat scratch slice instead of allocating per
// group.
func AppendNeighborPairs(dst []Pair, group []int, sweep int) []Pair {
	for i := sweep & 1; i+1 < len(group); i += 2 {
		dst = append(dst, Pair{group[i], group[i+1]})
	}
	return dst
}

// Grid describes the replica layout of a multi-dimensional REMD
// simulation: Shape[d] is the number of windows along dimension d, and
// replica IDs are row-major indexes into the grid. Total replicas is the
// product of Shape.
type Grid struct{ Shape []int }

// NewGrid validates and returns a grid.
func NewGrid(shape ...int) (Grid, error) {
	if len(shape) == 0 {
		return Grid{}, fmt.Errorf("exchange: empty grid shape")
	}
	for d, n := range shape {
		if n <= 0 {
			return Grid{}, fmt.Errorf("exchange: dimension %d has non-positive size %d", d, n)
		}
	}
	return Grid{Shape: append([]int(nil), shape...)}, nil
}

// MustNewGrid is NewGrid but panics on error.
func MustNewGrid(shape ...int) Grid {
	g, err := NewGrid(shape...)
	if err != nil {
		panic(err)
	}
	return g
}

// Size returns the total number of replicas.
func (g Grid) Size() int {
	n := 1
	for _, s := range g.Shape {
		n *= s
	}
	return n
}

// Index converts multi-indexes to a replica ID (row-major).
func (g Grid) Index(coord []int) int {
	if len(coord) != len(g.Shape) {
		panic(fmt.Sprintf("exchange: coord rank %d vs grid rank %d", len(coord), len(g.Shape)))
	}
	id := 0
	for d, c := range coord {
		if c < 0 || c >= g.Shape[d] {
			panic(fmt.Sprintf("exchange: coord %v out of shape %v", coord, g.Shape))
		}
		id = id*g.Shape[d] + c
	}
	return id
}

// GroupsAlong partitions all replica IDs into groups that differ only in
// their coordinate along dimension d; each group is ordered by that
// coordinate. Exchanges along dimension d happen within these groups,
// exactly the paper's "grouping of replicas by parameter values in each
// dimension".
//
// With row-major IDs the members of a group are an arithmetic sequence:
// base + k*stride(d), where stride(d) is the product of the trailing
// dimension sizes. Groups are emitted in increasing order of their
// smallest member (the coordinate-0 slot), i.e. outer prefix coordinates
// vary slowest, and members within a group are ordered by their
// coordinate along d.
func (g Grid) GroupsAlong(d int) [][]int {
	if d < 0 || d >= len(g.Shape) {
		panic(fmt.Sprintf("exchange: dimension %d out of range for shape %v", d, g.Shape))
	}
	stride := 1
	for i := d + 1; i < len(g.Shape); i++ {
		stride *= g.Shape[i]
	}
	nd := g.Shape[d]
	outer := g.Size() / (stride * nd)
	out := make([][]int, 0, outer*stride)
	members := make([]int, outer*stride*nd) // one backing array for all groups
	for a := 0; a < outer; a++ {
		for b := 0; b < stride; b++ {
			base := a*stride*nd + b
			group := members[:nd:nd]
			members = members[nd:]
			for k := 0; k < nd; k++ {
				group[k] = base + k*stride
			}
			out = append(out, group)
		}
	}
	return out
}

// Decision records one attempted exchange.
type Decision struct {
	Pair
	// Prob is the Metropolis acceptance probability.
	Prob float64
	// Accepted reports whether the swap was taken.
	Accepted bool
}

// Sweep draws accept/reject decisions for candidate pairs with the given
// probabilities.
func Sweep(pairs []Pair, probs []float64, rng *rand.Rand) []Decision {
	if len(pairs) != len(probs) {
		panic(fmt.Sprintf("exchange: %d pairs vs %d probabilities", len(pairs), len(probs)))
	}
	out := make([]Decision, len(pairs))
	for i, p := range pairs {
		out[i] = Decision{Pair: p, Prob: probs[i], Accepted: rng.Float64() < probs[i]}
	}
	return out
}

// AcceptanceRatio returns the fraction of accepted decisions (0 for an
// empty slice).
func AcceptanceRatio(ds []Decision) float64 {
	if len(ds) == 0 {
		return 0
	}
	n := 0
	for _, d := range ds {
		if d.Accepted {
			n++
		}
	}
	return float64(n) / float64(len(ds))
}
