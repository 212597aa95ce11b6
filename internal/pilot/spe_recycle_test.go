package pilot

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

const speRecycleGolden = "testdata/spe_recycle.golden"

// speRecycleFingerprint runs the salt exchange phase's shape on one
// failover runtime, through every way a unit can die (recycleScenarios):
// each round, every replica runs one watched MD segment (resubmitted when
// its resource is lost), then one unwatched single-point task each,
// awaited together, then one exchange task, awaited alone. The
// single-point specs are one per replica, rewritten each round, as an
// engine keeps them. Every result is hashed in the order the orchestrator
// received it.
func speRecycleFingerprint(t *testing.T, sc recycleScenario) string {
	const replicas, rounds = 8, 4
	e := sim.NewEnv()
	cl := cluster.MustNew(e, sc.cfg, sc.seed)
	rec := &runtimeRecord{}
	e.Go("orchestrator", func(p *sim.Proc) {
		rt, err := NewFailoverRuntime(cl, sc.desc, p)
		if err != nil {
			t.Error(err)
			return
		}
		if sc.fault != nil {
			p.Env().Go("fault", func(fp *sim.Proc) { sc.fault(fp, rt) })
		}
		spe := make([]task.Spec, replicas)
		var hs []task.Handle
		for round := 0; round < rounds; round++ {
			rec.runSegments(rt, replicas, 1, func(i, _ int) *task.Spec {
				return mdSpec(i, 1+i%2, 11+float64(i)*0.7+float64(round)*1.9)
			})
			hs = hs[:0]
			for i := range spe {
				spe[i] = task.Spec{Kind: task.SinglePoint, ReplicaID: i, Cores: 2,
					Duration: 3.1 + 0.2*float64(i) + 0.05*float64(round),
					InFiles:  2, InBytes: 40 << 10, OutFiles: 1, OutBytes: 4 << 10}
				hs = append(hs, rt.Submit(&spe[i]))
			}
			rec.results = append(rec.results, rt.AwaitAll(hs)...)
			ex := &task.Spec{Name: fmt.Sprintf("ex-%d", round), Kind: task.Exchange, Cores: 1,
				Duration: 0.5 + 0.1*float64(round), InFiles: 2, InBytes: 8 << 10, OutFiles: 1, OutBytes: 4 << 10}
			rec.results = append(rec.results, rt.Await(rt.Submit(ex)))
		}
	})
	e.Run()

	h := fnv.New64a()
	f := func(x float64) { fmt.Fprintf(h, "%016x,", math.Float64bits(x)) }
	failed := 0
	for _, r := range rec.results {
		f(r.Submitted)
		f(r.StageIn)
		f(r.CoreWait)
		f(r.Launch)
		f(r.Exec)
		f(r.StageOut)
		f(r.Finished)
		fmt.Fprintf(h, "%s;%d;%v\n", r.Spec.Label(), r.Pilot, r.Err)
		if r.Err != nil {
			failed++
		}
	}
	f(e.Now())
	return fmt.Sprintf("%s %016x results=%d failed=%d end=%.6f",
		sc.name, h.Sum64(), len(rec.results), failed, e.Now())
}

// TestSPERecycleGolden pins the exchange phase's unwatched units — the
// single-point and exchange tasks awaited with AwaitAll and Await — across
// unit deaths and the rounds after them. The golden was generated before
// the runtime reused awaited units, so a match means a unit reused after
// its Await carries nothing of its predecessor. Never regenerate it.
func TestSPERecycleGolden(t *testing.T) {
	var got []string
	for _, sc := range recycleScenarios() {
		got = append(got, speRecycleFingerprint(t, sc))
	}
	if *updateLifecycle {
		if err := os.WriteFile(speRecycleGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(speRecycleGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d scenarios, test has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("awaited units diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
