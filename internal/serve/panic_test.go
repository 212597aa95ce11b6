package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/task"
)

// blowingEngine is a virtual engine whose MDTask panics once the run is
// under way: the third segment it is asked to prepare.
type blowingEngine struct {
	core.Engine
	asked int
}

func (e *blowingEngine) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	if e.asked++; e.asked > 2*s.Replicas() {
		panic("engine blew up")
	}
	return e.Engine.MDTask(r, s, dim)
}

// TestPanickingRunFailsAlone: a run whose engine panics mid-cycle ends as
// failed with the panic and a stack in /runs/{id}, gives its pool cores
// back and takes nothing with it — the healthy run launched beside it
// ends on the slot fingerprint the same launch reaches alone.
func TestPanickingRunFailsAlone(t *testing.T) {
	launch := func(name string) *config.Launch {
		l, err := config.ParseLaunch([]byte(`{"sim": {"name": "` + name + `", "seed": 7,
			"dimensions": [{"type": "T", "count": 8, "min": 273, "max": 373}],
			"cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": 6},
			"res": {"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 8}}`))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	finished := func(r *Run) *core.Report {
		select {
		case <-r.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("run %s never finished", r.ID)
		}
		rep, _ := r.Result()
		return rep
	}

	alone, err := NewRegistry(16, 0).Launch(launch("healthy"))
	if err != nil {
		t.Fatal(err)
	}
	want := finished(alone)

	reg := NewRegistry(16, 0)
	doomed, err := reg.LaunchDoomed(launch("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := reg.Launch(launch("healthy"))
	if err != nil {
		t.Fatal(err)
	}

	got := finished(healthy)
	if _, err := healthy.Result(); err != nil {
		t.Fatalf("the healthy run failed beside the panicking one: %v", err)
	}
	if got.SlotFingerprint != want.SlotFingerprint || got.SlotRows != want.SlotRows {
		t.Fatalf("healthy run beside a panic ends on %016x over %d rows, alone on %016x over %d",
			got.SlotFingerprint, got.SlotRows, want.SlotFingerprint, want.SlotRows)
	}
	finished(doomed)
	if !reg.Wait(10 * time.Second) {
		t.Fatal("registry did not drain")
	}
	if used := reg.Pool().Used(); used != 0 {
		t.Fatalf("pool holds %d cores after both runs ended, want 0", used)
	}

	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/runs/" + doomed.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "engine blew up") || !strings.Contains(st.Error, "\ngoroutine ") {
		t.Fatalf("panicked run reports state %q, error %q; want failed with the panic value and a stack", st.State, st.Error)
	}
	if body := scrape(t, reg, "/metrics"); !strings.Contains(string(body), "\nrepexd_run_panics_total 1\n") {
		t.Fatal("the aggregate scrape does not count the panicked run in repexd_run_panics_total")
	}
}
