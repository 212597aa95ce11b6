package exchange

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTypeCodes(t *testing.T) {
	cases := []struct {
		ty   Type
		code string
	}{{Temperature, "T"}, {Umbrella, "U"}, {Salt, "S"}}
	for _, c := range cases {
		if c.ty.Code() != c.code {
			t.Errorf("%v.Code() = %q, want %q", c.ty, c.ty.Code(), c.code)
		}
		parsed, err := ParseType(c.code)
		if err != nil || parsed != c.ty {
			t.Errorf("ParseType(%q) = %v, %v", c.code, parsed, err)
		}
	}
	if _, err := ParseType("X"); err == nil {
		t.Error("ParseType(X) succeeded, want error")
	}
}

func TestAcceptTemperatureKnownCases(t *testing.T) {
	// Equal energies: always accept.
	if p := AcceptTemperature(1.5, 1.2, -100, -100); p != 1 {
		t.Errorf("equal energies p = %v, want 1", p)
	}
	// Equal betas: always accept.
	if p := AcceptTemperature(1.5, 1.5, -80, -120); p != 1 {
		t.Errorf("equal betas p = %v, want 1", p)
	}
	// Favourable: colder replica (higher beta) has higher energy ->
	// exponent (bI-bJ)(eI-eJ) > 0 -> accept with p = 1.
	if p := AcceptTemperature(2.0, 1.0, -50, -100); p != 1 {
		t.Errorf("favourable swap p = %v, want 1", p)
	}
	// Unfavourable case has p = exp(negative) < 1.
	p := AcceptTemperature(2.0, 1.0, -100, -50)
	want := math.Exp((2.0 - 1.0) * (-100 - -50))
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("unfavourable p = %v, want %v", p, want)
	}
}

func TestAcceptHamiltonianKnownCases(t *testing.T) {
	// If parameters don't change the energies, always accept.
	if p := AcceptHamiltonian(1.5, 1.5, -10, -10, -10, -10); p != 1 {
		t.Errorf("neutral Hamiltonian exchange p = %v, want 1", p)
	}
	// Cross configuration strictly better: accept.
	if p := AcceptHamiltonian(1, 1, 0, -5, 0, -5); p != 1 {
		t.Errorf("downhill exchange p = %v, want 1", p)
	}
	// Cross configuration worse by 2 kT total: p = exp(-2).
	p := AcceptHamiltonian(1, 1, 0, 1, 1, 0)
	if math.Abs(p-math.Exp(-2)) > 1e-12 {
		t.Errorf("uphill exchange p = %v, want exp(-2)", p)
	}
}

// Property: acceptance probabilities always lie in [0,1].
func TestPropertyAcceptanceBounds(t *testing.T) {
	f := func(bi, bj, a, b, c, d float64) bool {
		clampIn := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 1e3)
		}
		bi, bj = math.Abs(clampIn(bi))+1e-3, math.Abs(clampIn(bj))+1e-3
		a, b, c, d = clampIn(a), clampIn(b), clampIn(c), clampIn(d)
		p1 := AcceptTemperature(bi, bj, a, b)
		p2 := AcceptHamiltonian(bi, bj, a, b, c, d)
		return p1 >= 0 && p1 <= 1 && p2 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: detailed balance ratio. For the Metropolis rule,
// P(i->j)/P(j->i) = exp[(bi-bj)(ei-ej)] for temperature exchange.
func TestPropertyDetailedBalanceTemperature(t *testing.T) {
	f := func(rawBi, rawBj, rawEi, rawEj float64) bool {
		bi := math.Abs(math.Mod(rawBi, 3)) + 0.1
		bj := math.Abs(math.Mod(rawBj, 3)) + 0.1
		ei := math.Mod(rawEi, 50)
		ej := math.Mod(rawEj, 50)
		if math.IsNaN(ei) || math.IsNaN(ej) {
			return true
		}
		pF := AcceptTemperature(bi, bj, ei, ej)
		pR := AcceptTemperature(bj, bi, ej, ei) // reverse swap is identical
		if math.Abs(pF-pR) > 1e-12 {
			return false
		}
		// One direction must be exactly 1 (min(1, x) with x*1/x = 1).
		ratio := math.Exp((bi - bj) * (ei - ej))
		if ratio >= 1 {
			return pF == 1
		}
		return math.Abs(pF-ratio) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborPairsAlternate(t *testing.T) {
	group := []int{10, 11, 12, 13, 14}
	even := AppendNeighborPairs(nil, group, 0)
	odd := AppendNeighborPairs(nil, group, 1)
	wantEven := []Pair{{10, 11}, {12, 13}}
	wantOdd := []Pair{{11, 12}, {13, 14}}
	if !reflect.DeepEqual(even, wantEven) {
		t.Errorf("even pairs %v, want %v", even, wantEven)
	}
	if !reflect.DeepEqual(odd, wantOdd) {
		t.Errorf("odd pairs %v, want %v", odd, wantOdd)
	}
}

func TestNeighborPairsSmallGroups(t *testing.T) {
	if got := AppendNeighborPairs(nil, []int{5}, 0); len(got) != 0 {
		t.Errorf("singleton group pairs = %v, want none", got)
	}
	if got := AppendNeighborPairs(nil, nil, 1); len(got) != 0 {
		t.Errorf("empty group pairs = %v, want none", got)
	}
	if got := AppendNeighborPairs(nil, []int{3, 4}, 1); len(got) != 0 {
		t.Errorf("odd sweep of 2-group = %v, want none", got)
	}
}

// Property: pairs are disjoint and drawn from the group.
func TestPropertyNeighborPairsDisjoint(t *testing.T) {
	f := func(n uint8, sweep uint8) bool {
		size := int(n%32) + 1
		group := make([]int, size)
		for i := range group {
			group[i] = 100 + i
		}
		pairs := AppendNeighborPairs(nil, group, int(sweep))
		seen := map[int]bool{}
		for _, p := range pairs {
			if seen[p.I] || seen[p.J] || p.I == p.J {
				return false
			}
			seen[p.I] = true
			seen[p.J] = true
			if p.I < 100 || p.I >= 100+size || p.J < 100 || p.J >= 100+size {
				return false
			}
			// Nearest neighbours in group order.
			if p.J-p.I != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGridIndexCoordRoundTrip(t *testing.T) {
	g := MustNewGrid(6, 8, 8)
	if g.Size() != 384 {
		t.Fatalf("size = %d, want 384 (the paper's validation grid)", g.Size())
	}
	for id := 0; id < g.Size(); id++ {
		if got := g.Index(coordOf(g.Shape, id)); got != id {
			t.Fatalf("round trip failed: %d -> %v -> %d", id, coordOf(g.Shape, id), got)
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := NewGrid(4, 0); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestGroupsAlongPartition(t *testing.T) {
	g := MustNewGrid(3, 4)
	for d := 0; d < 2; d++ {
		groups := g.GroupsAlong(d)
		wantGroups := g.Size() / g.Shape[d]
		if len(groups) != wantGroups {
			t.Fatalf("dim %d: %d groups, want %d", d, len(groups), wantGroups)
		}
		var all []int
		for _, grp := range groups {
			if len(grp) != g.Shape[d] {
				t.Fatalf("dim %d: group size %d, want %d", d, len(grp), g.Shape[d])
			}
			all = append(all, grp...)
			// Within a group only coordinate d varies, in order.
			for k := 1; k < len(grp); k++ {
				c0 := coordOf(g.Shape, grp[k-1])
				c1 := coordOf(g.Shape, grp[k])
				for dd := range c0 {
					if dd == d {
						if c1[dd] != c0[dd]+1 {
							t.Fatalf("group not ordered along dim %d", d)
						}
					} else if c0[dd] != c1[dd] {
						t.Fatalf("group varies along dim %d too", dd)
					}
				}
			}
		}
		sort.Ints(all)
		for i, id := range all {
			if id != i {
				t.Fatalf("dim %d: groups do not partition replicas", d)
			}
		}
	}
}

// Property: for any grid, groups along each dimension partition the
// replica set exactly.
func TestPropertyGroupsPartition(t *testing.T) {
	f := func(a, b, c uint8) bool {
		shape := []int{int(a%4) + 1, int(b%4) + 1, int(c%4) + 1}
		g := MustNewGrid(shape...)
		for d := 0; d < 3; d++ {
			var all []int
			for _, grp := range g.GroupsAlong(d) {
				all = append(all, grp...)
			}
			if len(all) != g.Size() {
				return false
			}
			sort.Ints(all)
			for i, id := range all {
				if id != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepRespectsProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pairs := make([]Pair, 10000)
	probs := make([]float64, len(pairs))
	for i := range pairs {
		pairs[i] = Pair{2 * i, 2*i + 1}
		probs[i] = 0.3
	}
	ds := Sweep(pairs, probs, rng)
	ratio := AcceptanceRatio(ds)
	if math.Abs(ratio-0.3) > 0.02 {
		t.Fatalf("acceptance ratio %v, want ~0.3", ratio)
	}
}

func TestSweepExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := Sweep([]Pair{{0, 1}, {2, 3}}, []float64{0, 1}, rng)
	if ds[0].Accepted {
		t.Error("p=0 pair accepted")
	}
	if !ds[1].Accepted {
		t.Error("p=1 pair rejected")
	}
}

func TestSweepLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched sweep inputs did not panic")
		}
	}()
	Sweep([]Pair{{0, 1}}, nil, rand.New(rand.NewSource(1)))
}

func TestAcceptanceRatioEmpty(t *testing.T) {
	if AcceptanceRatio(nil) != 0 {
		t.Fatal("empty ratio != 0")
	}
}

// groupsAlongReference is the original map-based implementation, kept as
// the oracle for the stride-arithmetic GroupsAlong: same groups, same
// group order (first-seen over ascending IDs), same member order.
func groupsAlongReference(g Grid, d int) [][]int {
	total := g.Size()
	groups := make(map[string][]int)
	var order []string
	for id := 0; id < total; id++ {
		coord := coordOf(g.Shape, id)
		coord[d] = -1
		key := ""
		for _, c := range coord {
			key += string(rune('A'+c+1)) + ","
		}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], id)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}

func TestGroupsAlongMatchesReference(t *testing.T) {
	shapes := [][]int{
		{1}, {7}, {3, 4}, {4, 3}, {2, 2, 2}, {3, 1, 5}, {1, 6, 1}, {2, 3, 4, 2},
	}
	for _, shape := range shapes {
		g := MustNewGrid(shape...)
		for d := range shape {
			got := g.GroupsAlong(d)
			want := groupsAlongReference(g, d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %v dim %d:\n got %v\nwant %v", shape, d, got, want)
			}
		}
	}
}

func BenchmarkGroupsAlong(b *testing.B) {
	g := MustNewGrid(12, 12, 12) // 1728 replicas, the paper's largest sweep
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for d := 0; d < 3; d++ {
			if len(g.GroupsAlong(d)) == 0 {
				b.Fatal("no groups")
			}
		}
	}
}

// coordOf converts a replica ID to multi-indexes over shape, the row-major
// inverse of exchange.Grid.Index.
func coordOf(shape []int, id int) []int {
	coord := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		coord[d] = id % shape[d]
		id /= shape[d]
	}
	return coord
}
