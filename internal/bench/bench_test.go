package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("note %d", 7)
	s := tbl.String()
	for _, want := range []string{"== demo ==", "a", "bb", "# note 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestRunHelper(t *testing.T) {
	rep, err := run1D(exchange.Temperature, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 8 || rep.Cycles != 1 {
		t.Fatalf("report %d/%d", rep.Replicas, rep.Cycles)
	}
}

func TestCubeSideFor(t *testing.T) {
	cases := map[int]int{64: 4, 216: 6, 512: 8, 1000: 10, 1728: 12, 65: 5}
	for n, want := range cases {
		if got := cubeSideFor(n); got != want {
			t.Errorf("cubeSideFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	for _, c := range []struct {
		name  string
		quick bool
	}{
		{"quick", true},
		{"full", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, tbl, err := Fig5Overheads(c.quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(counts(c.quick)) {
				t.Fatalf("rows %d", len(rows))
			}
			if tbl == nil || len(tbl.Rows) != len(rows) {
				t.Fatal("table out of sync with rows")
			}
			perReplica := make([]float64, len(rows))
			for i, r := range rows {
				// Data times ordered T < U < S (the paper's file-set ordering).
				if !(r.TData < r.UData && r.UData < r.SData) {
					t.Errorf("data times not ordered T<U<S: %+v", r)
				}
				// RepEx overhead larger for 3D than 1D.
				if r.RepEx3D <= r.RepEx1D {
					t.Errorf("RepEx 3D overhead %v not above 1D %v at %d replicas", r.RepEx3D, r.RepEx1D, r.Replicas)
				}
				perReplica[i] = r.RPOver / float64(r.Replicas)
				t.Logf("%d replicas: data T %.2f U %.2f S %.2f s, RP overhead %.4f s a replica",
					r.Replicas, r.TData, r.UData, r.SData, perReplica[i])
			}
			first, last := rows[0], rows[len(rows)-1]
			if c.quick {
				// RP overhead grows with replicas; the quick rows are too
				// few and too small for a proportionality check.
				if last.RPOver <= 2*first.RPOver {
					t.Fatalf("RP overhead not growing with replicas: %v -> %v", first.RPOver, last.RPOver)
				}
				// Data times stay small (paper max 6.3 s even at 1728).
				if last.SData > 10 {
					t.Fatalf("S data time %v unreasonably large", last.SData)
				}
				return
			}
			// RP overhead proportional to replicas: each row's overhead a
			// replica within 0.8-1.25x of their median.
			sorted := slices.Clone(perReplica)
			slices.Sort(sorted)
			med := sorted[len(sorted)/2]
			for i, v := range perReplica {
				if v < 0.8*med || v > 1.25*med {
					t.Errorf("RP overhead %.4f s a replica at %d replicas, median %.4f", v, rows[i].Replicas, med)
				}
			}
		})
	}
}

// TestFig6Shapes checks Figure 6's rows on the quick rows and on the
// paper's full ones (64 to 1 728 replicas, ~0.1 s): MD flat at ~139.6 s
// for all three exchange types (139.0-139.8 s on the full rows), U close
// to T, S at least five times T (253.8 against 41.6 s at 1 728
// replicas), and exchange growing with the replica count.
func TestFig6Shapes(t *testing.T) {
	for _, c := range []struct {
		name  string
		quick bool
	}{
		{"quick", true},
		{"full", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, _, err := Fig6Weak1D(c.quick)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				// MD bars flat at ~139.6 s for all three exchange types.
				for _, md := range []float64{r.MDT, r.MDU, r.MDS} {
					if md < 135 || md > 145 {
						t.Fatalf("MD time %v outside 139.6±5 (replicas %d)", md, r.Replicas)
					}
				}
				// T and U exchange close; S substantially longer.
				if r.EXU < 0.8*r.EXT || r.EXU > 1.35*r.EXT {
					t.Fatalf("EX(U) %v not close to EX(T) %v", r.EXU, r.EXT)
				}
				if r.EXS < 5*r.EXT {
					t.Fatalf("EX(S) %v not substantially above EX(T) %v", r.EXS, r.EXT)
				}
				t.Logf("%d replicas: MD %.1f/%.1f/%.1f s, EX T %.1f U %.1f S %.1f s",
					r.Replicas, r.MDT, r.MDU, r.MDS, r.EXT, r.EXU, r.EXS)
			}
			// Exchange grows with replica count.
			if rows[len(rows)-1].EXT <= rows[0].EXT {
				t.Fatal("EX(T) not growing with replicas")
			}
			if rows[len(rows)-1].EXS <= rows[0].EXS {
				t.Fatal("EX(S) not growing with replicas")
			}
		})
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, _, err := Fig7Efficiency1D(true)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].EffT != 100 || rows[0].EffNone != 100 {
		t.Fatal("baseline efficiency not 100%")
	}
	last := rows[len(rows)-1]
	// Efficiency decreases with core count; the no-exchange baseline is
	// the highest series.
	if last.EffT >= 100 || last.EffNone >= 100 {
		t.Fatalf("efficiency did not decrease: %+v", last)
	}
	if last.EffNone <= last.EffT-1 {
		t.Fatalf("no-exchange efficiency %v not above T-REMD %v", last.EffNone, last.EffT)
	}
}

func TestFig8Shapes(t *testing.T) {
	rows, _, err := Fig8NAMD(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// NAMD 4000 steps of 2881 atoms: ~230 s on SuperMIC.
		if r.MD < 215 || r.MD > 245 {
			t.Fatalf("NAMD MD time %v outside ~230±15", r.MD)
		}
		if r.EX <= 0 {
			t.Fatal("missing exchange time")
		}
	}
	if rows[len(rows)-1].EX <= rows[0].EX {
		t.Fatal("NAMD exchange not growing")
	}
}

// TestFig9Shapes checks Figure 9's rows on the quick rows and on the
// paper's full ones (~0.1 s): a full TSU cycle's MD at ~495 s (493.9-
// 494.5 s on the full rows), the salt exchange at least three times the
// temperature one (294.9 against 51.1 s) and U similar to T.
func TestFig9Shapes(t *testing.T) {
	for _, c := range []struct {
		name  string
		quick bool
	}{
		{"quick", true},
		{"full", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, _, err := Fig9WeakTSU(c.quick)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				// Full-cycle MD across three dimensions: ~495 s on Stampede.
				if r.MD < 480 || r.MD > 510 {
					t.Fatalf("TSU MD %v outside ~495±15", r.MD)
				}
				// Salt dimension dominates the exchange cost.
				if r.EXS < 3*r.EXT {
					t.Fatalf("S exchange %v not dominant over T %v", r.EXS, r.EXT)
				}
				// T and U exchanges similar.
				if r.EXU < 0.7*r.EXT || r.EXU > 1.5*r.EXT {
					t.Fatalf("U exchange %v not similar to T %v", r.EXU, r.EXT)
				}
				t.Logf("%d replicas: MD %.1f s, EX T %.1f U %.1f S %.1f s",
					r.Replicas, r.MD, r.EXT, r.EXU, r.EXS)
			}
		})
	}
}

// TestFig10Shapes checks Figure 10's rows on the quick rows and on the
// paper's full ones (1 728 replicas on 112 to 1 728 cores, ~0.2 s).
// On the full rows the salt exchange at 112 cores is the paper's
// "~1 800 s" within 10 % (it reads 1 748 s); EX(T) reads 49.6-52.2 s
// and EX(U) 53.3-55.5 s across the row, and MD 8 013 -> 4 192 -> 2 522
// -> 2 010 -> 758 s, so only the first doubling of cores is held to
// halving MD.
func TestFig10Shapes(t *testing.T) {
	for _, c := range []struct {
		name  string
		quick bool
	}{
		{"quick", true},
		{"full", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, _, err := Fig10StrongTSU(c.quick)
			if err != nil {
				t.Fatal(err)
			}
			// All but the last point are Execution Mode II.
			for i, r := range rows {
				if i < len(rows)-1 && r.Mode != core.ModeII {
					t.Fatalf("point %d mode %v, want II", i, r.Mode)
				}
			}
			if rows[len(rows)-1].Mode != core.ModeI {
				t.Fatal("final point should be Mode I")
			}
			// MD phase time decreases as cores grow, roughly proportionally.
			for i := 1; i < len(rows); i++ {
				if rows[i].MD >= rows[i-1].MD {
					t.Fatalf("MD wall did not decrease: %v -> %v", rows[i-1].MD, rows[i].MD)
				}
			}
			ratio := rows[0].MD / rows[1].MD
			if ratio < 1.4 || ratio > 2.6 {
				t.Fatalf("MD halving ratio %v, want ~2 when cores double", ratio)
			}
			// S exchange shrinks with cores (its waves parallelize); T/U ~flat.
			if rows[0].EXS <= rows[len(rows)-1].EXS {
				t.Fatal("S exchange did not shrink with cores")
			}
			if !c.quick {
				if r := rows[0]; r.Cores != 112 || math.Abs(r.EXS-1800) > 180 {
					t.Fatalf("S exchange %.0f s at %d cores, want the paper's ~1 800 s at 112 cores within 10 %%", r.EXS, r.Cores)
				}
			}
			for _, r := range rows {
				t.Logf("%d cores: MD %.0f s, EX T %.1f U %.1f S %.0f s, mode %v",
					r.Cores, r.MD, r.EXT, r.EXU, r.EXS, r.Mode)
			}
		})
	}
}

// TestFig11Shapes checks Figure 11's two curves at the paper's scale
// (full rows, ~0.3 s): weak-scaling efficiency falls with every step
// and stays above 50 % (it reads 100 -> 57.8 %); strong-scaling
// efficiency falls until its last point, where cores = replicas, and
// rises there — Mode II gives way to Mode I, and the wave-scheduling
// penalty goes (50.6 -> 54.1 % at 1 728 cores). The quick rows show no
// uptick (91.4 -> 85.4 % at 216 cores), so this test runs the full ones.
func TestFig11Shapes(t *testing.T) {
	rows, _, err := Fig11EfficiencyTSU(false)
	if err != nil {
		t.Fatal(err)
	}
	var weak, strong []float64
	for _, r := range rows {
		if r.StrEff == 0 {
			weak = append(weak, r.WeakEff)
		} else {
			strong = append(strong, r.StrEff)
		}
	}
	if len(weak) < 3 || len(strong) < 3 {
		t.Fatalf("%d weak and %d strong points, want at least 3 each", len(weak), len(strong))
	}
	for i := 1; i < len(weak); i++ {
		if weak[i] >= weak[i-1] || weak[i] <= 50 {
			t.Fatalf("weak efficiency %v: must fall strictly and stay above 50%%", weak)
		}
	}
	last := len(strong) - 1
	for i := 1; i < last; i++ {
		if strong[i] >= strong[i-1] {
			t.Fatalf("strong efficiency %v: must fall until cores = replicas", strong)
		}
	}
	if strong[last] <= strong[last-1] {
		t.Fatalf("strong efficiency %v: no uptick at cores = replicas (Mode II -> I)", strong)
	}
}

func TestFig12Shapes(t *testing.T) {
	rows, _, err := Fig12MultiCore(true)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Executable != "sander" || rows[0].CoresPerReplica != 1 {
		t.Fatalf("first point should be single-core sander: %+v", rows[0])
	}
	if rows[1].Executable != "pmemd.MPI" {
		t.Fatalf("multi-core points should use pmemd.MPI: %+v", rows[1])
	}
	// Large drop from 1 to 16 cores per replica.
	if rows[1].MD >= rows[0].MD/4 {
		t.Fatalf("MD %v -> %v: drop too small", rows[0].MD, rows[1].MD)
	}
}

// TestFig13Shapes checks Figure 13's rows for the paper's "sync ~10 pp
// above async, roughly flat". On the quick rows (120 and 240 replicas)
// and the full ones (120 to 960) sync stays above async and both within
// 40-95 %. Only the quick rows keep the gap within 3-25 pp: the full
// rows' gap narrows, 8.35, 6.80, 4.37 and 2.28 pp at 120, 240, 480 and
// 960 replicas, so the paper's flat gap holds at the small end only.
func TestFig13Shapes(t *testing.T) {
	for _, c := range []struct {
		name           string
		quick          bool
		minGap, maxGap float64 // pp
	}{
		{"quick", true, 3, 25},
		{"full", false, 0, 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, _, err := Fig13Utilization(c.quick)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.SyncUtil <= r.AsyncUtil {
					t.Errorf("sync utilization %v not above async %v at %d replicas",
						r.SyncUtil, r.AsyncUtil, r.Replicas)
				}
				for _, u := range []float64{r.SyncUtil, r.AsyncUtil} {
					if u < 40 || u > 95 {
						t.Errorf("utilization %v outside 40-95 %% at %d replicas", u, r.Replicas)
					}
				}
				gap := r.SyncUtil - r.AsyncUtil
				if gap < c.minGap || gap > c.maxGap {
					t.Errorf("utilization gap %v pp at %d replicas outside %v-%v pp", gap, r.Replicas, c.minGap, c.maxGap)
				}
				t.Logf("%d replicas: sync %.2f %%, async %.2f %%, gap %.2f pp",
					r.Replicas, r.SyncUtil, r.AsyncUtil, gap)
			}
		})
	}
}

func TestTable1(t *testing.T) {
	pkgs := Table1Packages()
	if len(pkgs) != 7 {
		t.Fatalf("packages %d, want 7", len(pkgs))
	}
	tbl := Table1Comparison()
	s := tbl.String()
	for _, want := range []string{"RepEx", "sync, async", "Charm++/NAMD MCA", "524288"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q", want)
		}
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("Table 1 rows %d, want 8 features", len(tbl.Rows))
	}
}

func TestFig4ValidationReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("real-MD validation is slow")
	}
	opts := DefaultValidationOptions()
	opts.TWindows = 2
	opts.UWindows = 4
	opts.StepsPerCycle = 150
	opts.Cycles = 2
	opts.Bins = 16
	res, tbl, err := Fig4Validation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Surfaces) != 2 {
		t.Fatalf("surfaces %d, want one per temperature", len(res.Surfaces))
	}
	for i, f := range res.Surfaces {
		if f.CoveredFraction() < 0.12 {
			t.Fatalf("T%d: FES coverage %v too low (umbrella windows should cover the torus)",
				i, f.CoveredFraction())
		}
	}
	// Exchanges must actually happen in the T dimension (the small real
	// system has overlapping energy distributions). The U dimensions do
	// not exchange at this size, and the physics says they should not:
	// 4 windows a torsion are 90° apart, and at K = UmbrellaK002
	// (0.02 kcal/mol/deg²) a torsion at its own window's centre costs
	// K·(π/2)² ≈ 162 kcal/mol under its neighbour's, so a swap is
	// accepted with probability ~exp(−300 β). This run measures
	// AcceptT = 0.375 and AcceptU = 0.
	if res.AcceptT <= 0 {
		t.Fatal("no temperature exchanges accepted in the real run")
	}
	if res.AcceptU < 0 || res.AcceptU > 1 || res.AcceptT > 1 {
		t.Fatalf("acceptance ratios out of range: T=%v U=%v", res.AcceptT, res.AcceptU)
	}
	if tbl == nil || len(tbl.Rows) != 2 {
		t.Fatal("validation table malformed")
	}
}

// TestFig4RejectsZeroBins: a FES grid without bins is an input error,
// caught before any MD runs (stats.NewHist2D would panic on it after).
func TestFig4RejectsZeroBins(t *testing.T) {
	opts := DefaultValidationOptions()
	opts.Bins = 0
	if _, _, err := Fig4Validation(opts); err == nil || !strings.Contains(err.Error(), "FES bin") {
		t.Fatalf("err = %v, want the bins error", err)
	}
}

// TestLaunchParamsAdmission: a replica wider than the widest pilot has
// nowhere to run — the runtime would panic on its first MD task — so
// the one Launch→RunParams mapping turns the configuration away, naming
// both numbers, whether the pilot is too small outright or only after
// the split over several pilots.
func TestLaunchParamsAdmission(t *testing.T) {
	cases := []struct {
		name              string
		perReplica, cores int
		pilots            string
		wantErr           string
	}{
		{"fits one pilot", 8, 8, "", ""},
		{"fits the wider half of an uneven split", 5, 9, `, "pilots": 2`, ""},
		{"wider than the pilot", 8, 4, "", "cores_per_replica 8 exceeds the widest pilot (4 cores"},
		{"wider than every pilot after the split", 8, 8, `, "pilots": 2`, "cores_per_replica 8 exceeds the widest pilot (4 cores: pilot_cores 8 over 2 pilots)"},
	}
	for _, tc := range cases {
		body := fmt.Sprintf(`{"sim": {"name": "wide", "seed": 1,
			"dimensions": [{"type": "T", "count": 4, "min": 273, "max": 373}],
			"cores_per_replica": %d, "steps_per_cycle": 2000, "cycles": 2},
			"res": {"machine": "small", "nodes": 2, "cores_per_node": 8, "pilot_cores": %d%s}}`,
			tc.perReplica, tc.cores, tc.pilots)
		l, err := config.ParseLaunch([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p, err := LaunchParams(l)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr == "":
			if _, err := Run(p); err != nil {
				t.Errorf("%s: admitted but failed: %v", tc.name, err)
			}
		case err == nil || !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunRejectsSaltWiderThanPilot: a salt dimension's single-point tasks
// are min(SPEWidth, windows) cores wide, so a salt run whose replicas fit
// the pilot can still have exchange tasks that fit nowhere — the
// runtime's "fits no pilot" panic. LaunchParams, and Run for callers
// that build RunParams themselves (repex.RunVirtual), turn it away.
func TestRunRejectsSaltWiderThanPilot(t *testing.T) {
	cases := []struct {
		name    string
		windows string
		res     string
		wantErr string
	}{
		{"fits: two windows, two cores", "[0.1, 0.4]", `"pilot_cores": 2`, ""},
		{"fits: four windows, four cores", "[0.1, 0.2, 0.4, 0.8]", `"pilot_cores": 4`, ""},
		{"four windows, two cores", "[0.1, 0.2, 0.4, 0.8]", `"pilot_cores": 2`,
			"salt dimension 0's single-point width 4 exceeds the widest pilot (2 cores"},
		{"four windows, four cores over two pilots", "[0.1, 0.2, 0.4, 0.8]", `"pilot_cores": 4, "pilots": 2`,
			"salt dimension 0's single-point width 4 exceeds the widest pilot (2 cores: pilot_cores 4 over 2 pilots)"},
	}
	for _, tc := range cases {
		l, err := config.ParseLaunch([]byte(fmt.Sprintf(`{"sim": {"name": "salt", "seed": 1,
			"dimensions": [{"type": "S", "values": %s}],
			"cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": 2},
			"res": {"machine": "small", "nodes": 1, "cores_per_node": 8, %s}}`, tc.windows, tc.res)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, err = LaunchParams(l)
		// The same launch built by hand, past LaunchParams.
		spec, serr := l.Sim.ToSpec()
		machine, ps, rerr := l.Res.Resolve()
		if serr != nil || rerr != nil {
			t.Fatalf("%s: %v %v", tc.name, serr, rerr)
		}
		_, runErr := Run(RunParams{Spec: spec, Cluster: machine, PilotCores: ps.Cores, Pilots: ps.Pilots,
			NewEngine: func(seed int64) core.Engine { return engines.NewAmberVirtual(2881, seed) }, Seed: 1})
		for front, err := range map[string]error{"LaunchParams": err, "Run": runErr} {
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("%s: %s rejected it: %v", tc.name, front, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("%s: %s error %v, want one containing %q", tc.name, front, err, tc.wantErr)
			}
		}
	}
}
