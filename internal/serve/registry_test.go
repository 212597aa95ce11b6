package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// simBody renders a barrier T-REMD simulation block: the trigger whose
// cancel+resume path is bit-exact at every snapshot boundary.
func simBody(name string, replicas, cycles int, seed int64) string {
	return fmt.Sprintf(`{
		"name": %q, "seed": %d,
		"dimensions": [{"type": "T", "count": %d, "min": 273, "max": 373}],
		"cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": %d
	}`, name, seed, replicas, cycles)
}

const resBody8 = `{"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 8}`

// launchBody assembles a POST /runs body; extra is appended inside the
// top-level object (e.g. `"checkpoint": "/tmp/x", "checkpoint_every": 2`).
func launchBody(sim, res, extra string) string {
	b := `{"sim": ` + sim + `, "res": ` + res
	if extra != "" {
		b += ", " + extra
	}
	return b + "}"
}

func postRun(t *testing.T, base, body string) (serve.RunStatus, int) {
	t.Helper()
	resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.RunStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getRunStatus(t *testing.T, base, id string) serve.RunStatus {
	t.Helper()
	resp, err := http.Get(base + "/runs/" + id + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/%s/status: %d", id, resp.StatusCode)
	}
	var st serve.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func terminal(state string) bool {
	return state == "completed" || state == "failed" || state == "cancelled"
}

// waitFor polls the run's status until cond holds, failing after 60 s.
func waitFor(t *testing.T, base, id string, cond func(serve.RunStatus) bool, what string) serve.RunStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getRunStatus(t, base, id)
		if cond(st) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %s: timed out waiting for %s", id, what)
	return serve.RunStatus{}
}

func cancelRun(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE /runs/%s: %d", id, resp.StatusCode)
	}
}

func newDaemon(t *testing.T, totalCores, maxRuns int) (*serve.Registry, *httptest.Server) {
	t.Helper()
	reg := serve.NewRegistry(totalCores, maxRuns)
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		reg.CancelAll()
		if !reg.Wait(30 * time.Second) {
			t.Error("registry did not drain on cleanup")
		}
		ts.Close()
	})
	return reg, ts
}

func TestRegistryLaunchToCompletionHTTP(t *testing.T) {
	reg, ts := newDaemon(t, 0, 0)
	st, code := postRun(t, ts.URL, launchBody(simBody("basic", 8, 4, 3), resBody8, ""))
	if code != http.StatusCreated || st.ID == "" {
		t.Fatalf("launch: code %d, status %+v", code, st)
	}
	final := waitFor(t, ts.URL, st.ID, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state")
	if final.State != "completed" || final.ExchangeEvents != 4 {
		t.Fatalf("final status %+v, want completed with 4 events", final)
	}
	run, ok := reg.Get(st.ID)
	if !ok {
		t.Fatalf("run %s not in registry", st.ID)
	}
	<-run.Done()
	if report, err := run.Result(); err != nil || report.ExchangeEvents != 4 {
		t.Fatalf("result: %v, %+v", err, report)
	}

	// /runs lists it; /stats serves; bad body and unknown ids are
	// rejected with typed errors.
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list []serve.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list %+v", list)
	}
	for path, want := range map[string]int{
		"/runs/" + st.ID + "/stats":   http.StatusOK,
		"/runs/" + st.ID + "/metrics": http.StatusOK,
		"/runs/nope/status":           http.StatusNotFound,
		"/healthz":                    http.StatusOK,
		"/status":                     http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
	if _, code := postRun(t, ts.URL, `{"sim": {`); code != http.StatusBadRequest {
		t.Errorf("malformed body accepted: %d", code)
	}
	if _, code := postRun(t, ts.URL, `{"res": `+resBody8+`}`); code != http.StatusBadRequest {
		t.Errorf("missing sim accepted: %d", code)
	}
}

// TestRegistryConcurrentPoolCancelResume is the acceptance scenario:
// one process runs three concurrent runs against one bounded core pool
// (a fourth is turned away), one run is cancelled mid-flight through
// the API and reaches "cancelled" with a valid final snapshot, the
// others complete, and resuming the snapshot reproduces the
// uninterrupted run's slot history bit-exactly.
func TestRegistryConcurrentPoolCancelResume(t *testing.T) {
	reg, ts := newDaemon(t, 24, 0)
	ck := filepath.Join(t.TempDir(), "victim.ckpt")

	// The cancel target's cycle budget only bounds the run; a barrier
	// run's event sequence is budget-independent, so the reference run
	// below (same spec, same budget) shares its history prefix. If the
	// run ever outraces the DELETE, retry with a larger budget.
	cycles := 4000
	var victim serve.RunStatus
	var bID, cID string
	for attempt := 0; ; attempt++ {
		st, code := postRun(t, ts.URL, launchBody(simBody("victim", 8, cycles, 7), resBody8,
			fmt.Sprintf(`"checkpoint": %q, "checkpoint_every": 2`, ck)))
		if code != http.StatusCreated {
			t.Fatalf("victim launch: %d", code)
		}
		victim = st
		if attempt == 0 {
			// Two sibling runs share the pool with the victim: 24 cores
			// are now admitted, so an 8-core fourth run must be refused.
			b, code := postRun(t, ts.URL, launchBody(simBody("sib-b", 4, 40000, 8), resBody8, ""))
			if code != http.StatusCreated {
				t.Fatalf("sibling b launch: %d", code)
			}
			c, code := postRun(t, ts.URL, launchBody(simBody("sib-c", 6, 40000, 9), resBody8, ""))
			if code != http.StatusCreated {
				t.Fatalf("sibling c launch: %d", code)
			}
			bID, cID = b.ID, c.ID
			if used := reg.Pool().Used(); used != 24 {
				t.Fatalf("pool used %d, want 24", used)
			}
			if _, code := postRun(t, ts.URL, launchBody(simBody("overflow", 8, 4, 1), resBody8, "")); code != http.StatusTooManyRequests {
				t.Fatalf("overflow launch: %d, want 429", code)
			}
		}
		waitFor(t, ts.URL, victim.ID, func(s serve.RunStatus) bool {
			return s.ExchangeEvents >= 2 || terminal(s.State)
		}, "progress")
		cancelRun(t, ts.URL, victim.ID)
		final := waitFor(t, ts.URL, victim.ID, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state")
		if final.State == "cancelled" {
			break
		}
		if final.State != "completed" || attempt >= 3 {
			t.Fatalf("victim reached %q (attempt %d)", final.State, attempt)
		}
		cycles *= 4
	}

	run, _ := reg.Get(victim.ID)
	<-run.Done()
	if _, err := run.Result(); !errors.Is(err, core.ErrRunCancelled) {
		t.Fatalf("victim error %v, want ErrRunCancelled", err)
	}
	for _, id := range []string{bID, cID} {
		if st := waitFor(t, ts.URL, id, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state"); st.State != "completed" {
			t.Fatalf("sibling %s reached %q, want completed", id, st.State)
		}
	}

	// The final snapshot is the cancellation boundary: decodable, within
	// the run, and the resume seed.
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("final snapshot invalid: %v", err)
	}
	if snap.Events < 2 || snap.Events >= cycles {
		t.Fatalf("snapshot at event %d, want within (2, %d)", snap.Events, cycles)
	}

	// Reference: the same spec uninterrupted.
	ref, code := postRun(t, ts.URL, launchBody(simBody("victim", 8, cycles, 7), resBody8, ""))
	if code != http.StatusCreated {
		t.Fatalf("reference launch: %d", code)
	}
	waitFor(t, ts.URL, ref.ID, func(s serve.RunStatus) bool { return s.State == "completed" }, "completion")
	refRun, _ := reg.Get(ref.ID)
	<-refRun.Done()
	refReport, err := refRun.Result()
	if err != nil {
		t.Fatal(err)
	}

	res, code := postRun(t, ts.URL, launchBody(simBody("victim", 8, cycles, 7), resBody8,
		fmt.Sprintf(`"resume": %q`, ck)))
	if code != http.StatusCreated {
		t.Fatalf("resume launch: %d", code)
	}
	waitFor(t, ts.URL, res.ID, func(s serve.RunStatus) bool { return s.State == "completed" }, "completion")
	resRun, _ := reg.Get(res.ID)
	<-resRun.Done()
	resReport, err := resRun.Result()
	if err != nil {
		t.Fatal(err)
	}
	if resReport.ExchangeEvents != refReport.ExchangeEvents {
		t.Fatalf("resumed run fired %d events, reference %d", resReport.ExchangeEvents, refReport.ExchangeEvents)
	}
	if resReport.SlotRows != refReport.SlotRows || resReport.SlotFingerprint != refReport.SlotFingerprint {
		t.Fatalf("cancel+resume history (%d rows, %#x) differs from uninterrupted run (%d rows, %#x)",
			resReport.SlotRows, resReport.SlotFingerprint, refReport.SlotRows, refReport.SlotFingerprint)
	}

	if used := reg.Pool().Used(); used != 0 {
		t.Fatalf("pool still holds %d cores after all runs finished", used)
	}
}

// TestRegistryMaxRuns: the active-run bound turns the N+1th launch away
// with 429 and admits again once a slot frees.
func TestRegistryMaxRuns(t *testing.T) {
	_, ts := newDaemon(t, 0, 1)
	st, code := postRun(t, ts.URL, launchBody(simBody("only", 8, 200000, 3), resBody8, ""))
	if code != http.StatusCreated {
		t.Fatalf("launch: %d", code)
	}
	if _, code := postRun(t, ts.URL, launchBody(simBody("second", 8, 4, 4), resBody8, "")); code != http.StatusTooManyRequests {
		t.Fatalf("second launch: %d, want 429", code)
	}
	cancelRun(t, ts.URL, st.ID)
	waitFor(t, ts.URL, st.ID, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state")
	if _, code := postRun(t, ts.URL, launchBody(simBody("second", 8, 4, 4), resBody8, "")); code != http.StatusCreated {
		t.Fatalf("post-drain launch: %d, want 201", code)
	}
}

// TestRegistryRejectsSaltWiderThanPilot: a salt launch whose replicas fit
// the pilot but whose single-point tasks (min(4, windows) cores) do not
// is a 400 naming both widths, and reserves nothing.
func TestRegistryRejectsSaltWiderThanPilot(t *testing.T) {
	reg, ts := newDaemon(t, 16, 0)
	salt := `{"name": "salt", "seed": 1, "dimensions": [{"type": "S", "values": [0.1, 0.2, 0.4, 0.8]}],
		"cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": 2}`
	res := `{"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 2}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(launchBody(salt, res, "")))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "single-point width 4 exceeds the widest pilot (2 cores") {
		t.Errorf("%d %s, want 400 naming both widths", resp.StatusCode, msg)
	}
	if n, used := len(reg.List()), reg.Pool().Used(); n != 0 || used != 0 {
		t.Errorf("%d runs registered, %d pool cores used; want none", n, used)
	}
}

// TestRegistryRejectsReplicaWiderThanPilot: a launch whose replicas fit
// no pilot — outright, or once pilot_cores is split — used to reach a
// panic in the runtime and take the daemon down with every run in it.
// It is a 400 that never touches the pool, and a sibling run launched
// before it still completes.
func TestRegistryRejectsReplicaWiderThanPilot(t *testing.T) {
	reg, ts := newDaemon(t, 16, 0)
	sibling, code := postRun(t, ts.URL, launchBody(simBody("sibling", 8, 3000, 3), resBody8, ""))
	if code != http.StatusCreated {
		t.Fatalf("sibling launch: %d", code)
	}
	wide := strings.Replace(simBody("wide", 4, 2, 5), `"cores_per_replica": 1`, `"cores_per_replica": 8`, 1)
	for name, res := range map[string]string{
		"small pilot": `{"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 4}`,
		"split pilot": `{"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 8, "pilots": 2}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(launchBody(wide, res, "")))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "cores_per_replica 8 exceeds the widest pilot (4 cores") {
			t.Errorf("%s: %d %s, want 400 naming both widths", name, resp.StatusCode, msg)
		}
	}
	if len(reg.List()) != 1 {
		t.Errorf("%d runs registered, want the sibling only", len(reg.List()))
	}
	// The rejected launches left the 16-core pool untouched: beside the
	// sibling's 8 cores a second 8-core run is admitted.
	second, code := postRun(t, ts.URL, launchBody(simBody("second", 8, 4, 4), resBody8, ""))
	if code != http.StatusCreated {
		t.Fatalf("launch after the rejections: %d, want 201", code)
	}
	for _, id := range []string{sibling.ID, second.ID} {
		if st := waitFor(t, ts.URL, id, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state"); st.State != "completed" {
			t.Errorf("run %s ended %q (%s), want completed", id, st.State, st.Error)
		}
	}
}

// TestRegistryParallelLaunchCancelInspect hammers the control plane
// from many goroutines (launch, inspect, list, cancel) — the -race
// exercise for the registry's locking.
func TestRegistryParallelLaunchCancelInspect(t *testing.T) {
	reg, ts := newDaemon(t, 0, 0)
	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code := postRun(t, ts.URL, launchBody(
				simBody(fmt.Sprintf("par-%d", i), 4+i%3, 50+i, int64(i+1)), resBody8, ""))
			if code != http.StatusCreated {
				t.Errorf("launch %d: %d", i, code)
				return
			}
			ids[i] = st.ID
			for j := 0; j < 20; j++ {
				getRunStatus(t, ts.URL, st.ID)
				if _, err := http.Get(ts.URL + "/runs"); err != nil {
					t.Error(err)
				}
			}
			if i%2 == 0 {
				cancelRun(t, ts.URL, st.ID)
			}
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			continue
		}
		st := waitFor(t, ts.URL, id, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state")
		if st.State == "failed" {
			t.Errorf("run %s failed: %s", id, st.Error)
		}
	}
	if !reg.Wait(30 * time.Second) {
		t.Fatal("registry did not drain")
	}
	if used := reg.Pool().Used(); used != 0 {
		t.Fatalf("pool used %d after drain", used)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" {
					return events
				}
			}
			cur = sseEvent{}
		}
	}
	t.Fatalf("SSE stream %s ended without a done event: %v", url, sc.Err())
	return nil
}

// TestRegistryEventStreamsDoNotBleed runs two concurrent runs with
// different replica counts and asserts each SSE stream only ever
// carries events shaped like its own run, every one under its own name
// (the big run's pilot expires every 20000 s, so its stream carries
// resource events whenever the client attaches).
func TestRegistryEventStreamsDoNotBleed(t *testing.T) {
	_, ts := newDaemon(t, 0, 0)
	small, code := postRun(t, ts.URL, launchBody(simBody("bleed-small", 4, 5000, 5), resBody8, ""))
	if code != http.StatusCreated {
		t.Fatalf("small launch: %d", code)
	}
	big, code := postRun(t, ts.URL, launchBody(simBody("bleed-big", 8, 5000, 6),
		strings.Replace(resBody8, "}", `, "walltime_sec": 20000}`, 1), ""))
	if code != http.StatusCreated {
		t.Fatalf("big launch: %d", code)
	}

	check := func(id string, replicas int) map[string]int {
		events := readSSE(t, ts.URL+"/runs/"+id+"/events")
		seen := map[string]int{}
		for _, ev := range events {
			seen[ev.name]++
			switch ev.name {
			case "exchange":
				var e struct {
					Slots []int
				}
				if err := json.Unmarshal(ev.data, &e); err != nil {
					t.Fatal(err)
				}
				if len(e.Slots) != replicas {
					t.Fatalf("run %s: exchange event with %d slots, run has %d replicas — cross-run bleed",
						id, len(e.Slots), replicas)
				}
			case "md", "fault":
				var e struct {
					Replica int
				}
				if err := json.Unmarshal(ev.data, &e); err != nil {
					t.Fatal(err)
				}
				if e.Replica < 0 || e.Replica >= replicas {
					t.Fatalf("run %s: event for replica %d outside its %d replicas — cross-run bleed",
						id, e.Replica, replicas)
				}
			case "done":
				var e struct {
					State string
				}
				if err := json.Unmarshal(ev.data, &e); err != nil {
					t.Fatal(err)
				}
				if e.State != "completed" {
					t.Fatalf("run %s done state %q", id, e.State)
				}
			}
		}
		return seen
	}
	var wg sync.WaitGroup
	counts := make([]map[string]int, 2)
	wg.Add(2)
	go func() { defer wg.Done(); counts[0] = check(small.ID, 4) }()
	go func() { defer wg.Done(); counts[1] = check(big.ID, 8) }()
	wg.Wait()
	if counts[0]["exchange"] == 0 && counts[1]["exchange"] == 0 {
		t.Fatal("neither stream observed an exchange event; the bleed check never engaged")
	}
	if counts[1]["resource"] == 0 || counts[0]["event"]+counts[1]["event"] > 0 {
		t.Fatalf("pilot lifecycle events must stream as \"resource\", none unnamed: %v", counts)
	}
}

// TestRegistryResumesTwoDistinctCheckpoints cancels two different runs,
// then resumes both concurrently from their own snapshots: each resumed
// run must carry its own identity and finish from its own boundary.
func TestRegistryResumesTwoDistinctCheckpoints(t *testing.T) {
	reg, ts := newDaemon(t, 0, 0)
	dir := t.TempDir()
	cks := []string{filepath.Join(dir, "one.ckpt"), filepath.Join(dir, "two.ckpt")}
	names := []string{"resume-one", "resume-two"}
	seeds := []int64{41, 42}
	snaps := make([]*core.Snapshot, 2)
	for i := range cks {
		st, code := postRun(t, ts.URL, launchBody(simBody(names[i], 8, 400000, seeds[i]), resBody8,
			fmt.Sprintf(`"checkpoint": %q, "checkpoint_every": 2`, cks[i])))
		if code != http.StatusCreated {
			t.Fatalf("launch %s: %d", names[i], code)
		}
		waitFor(t, ts.URL, st.ID, func(s serve.RunStatus) bool {
			return s.ExchangeEvents >= 2 || terminal(s.State)
		}, "progress")
		cancelRun(t, ts.URL, st.ID)
		if st := waitFor(t, ts.URL, st.ID, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state"); st.State != "cancelled" {
			t.Fatalf("run %s reached %q, want cancelled", names[i], st.State)
		}
		data, err := os.ReadFile(cks[i])
		if err != nil {
			t.Fatal(err)
		}
		if snaps[i], err = core.DecodeSnapshot(data); err != nil {
			t.Fatal(err)
		}
	}

	// Both resumes run concurrently, each under a budget past its own
	// boundary; a swapped checkpoint (wrong name) must be refused.
	resumed := make([]string, 2)
	for i := range cks {
		cycles := snaps[i].Events + 20
		st, code := postRun(t, ts.URL, launchBody(simBody(names[i], 8, cycles, seeds[i]), resBody8,
			fmt.Sprintf(`"resume": %q`, cks[i])))
		if code != http.StatusCreated {
			t.Fatalf("resume %s: %d", names[i], code)
		}
		resumed[i] = st.ID
	}
	for i, id := range resumed {
		st := waitFor(t, ts.URL, id, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state")
		if st.State != "completed" || st.Name != names[i] {
			t.Fatalf("resumed run %s: state %q name %q, want completed %q", id, st.State, st.Name, names[i])
		}
		run, _ := reg.Get(id)
		<-run.Done()
		report, err := run.Result()
		if err != nil {
			t.Fatal(err)
		}
		if report.SlotRows != snaps[i].Events+20 {
			t.Fatalf("resumed run %s has %d history rows, want %d", id, report.SlotRows, snaps[i].Events+20)
		}
	}
	code, msg := postRaw(t, ts.URL, launchBody(simBody(names[1], 8, snaps[0].Events+20, seeds[1]), resBody8,
		fmt.Sprintf(`"resume": %q`, cks[0])))
	if code != http.StatusBadRequest || !strings.Contains(msg, "belongs to") {
		t.Fatalf("mismatched resume launch: %d %s, want 400 with a name check", code, msg)
	}
}

// postRaw posts a launch body and returns the status code and body.
func postRaw(t *testing.T, base, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(msg)
}

// TestRegistryRefusesBadCheckpointAtLaunch: every refusal of a decoded
// checkpoint is a 400 at POST /runs carrying ErrResume, before the
// registry admits anything — no run id, no pool cores. A checkpoint
// whose draw counts would take centuries to replay is refused as
// promptly as the rest.
func TestRegistryRefusesBadCheckpointAtLaunch(t *testing.T) {
	reg, ts := newDaemon(t, 16, 0)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	st, code := postRun(t, ts.URL, launchBody(simBody("checked", 8, 4, 5), resBody8,
		fmt.Sprintf(`"checkpoint": %q, "checkpoint_every": 2`, good)))
	if code != http.StatusCreated {
		t.Fatalf("checkpointed launch: %d", code)
	}
	waitFor(t, ts.URL, st.ID, func(s serve.RunStatus) bool { return s.State == "completed" }, "completion")
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// A sibling holds half the pool while the bad launches arrive.
	sibling, code := postRun(t, ts.URL, launchBody(simBody("sibling", 8, 400000, 6), resBody8, ""))
	if code != http.StatusCreated {
		t.Fatalf("sibling launch: %d", code)
	}
	runs, used := len(reg.List()), reg.Pool().Used()

	for _, c := range []struct {
		name, want string
		corrupt    func(*core.Snapshot)
	}{
		{"other simulation", "belongs to", func(sn *core.Snapshot) { sn.Name = "other" }},
		{"other trigger", "taken under trigger", func(sn *core.Snapshot) { sn.Trigger = "window" }},
		{"trigger state", "cannot restore it", func(sn *core.Snapshot) { sn.TriggerData = []byte(`{}`) }},
		{"replica count", "has 7 replicas", func(sn *core.Snapshot) { sn.Replicas = sn.Replicas[:7] }},
		{"negative events", "exchange events, outside", func(sn *core.Snapshot) { sn.Events, sn.SlotRows = -1, -1 }},
		{"events past the budget", "exchange events, outside", func(sn *core.Snapshot) { sn.Events, sn.SlotRows = 1<<40, 1<<40 }},
		{"exchange draws", "exchange draws, outside", func(sn *core.Snapshot) { sn.RNGDraws = 1 << 62 }},
		{"engine draws", "engine draws, outside", func(sn *core.Snapshot) { sn.EngineDraws = 1 << 62 }},
		{"skipped engine replay", "engine draws, outside", func(sn *core.Snapshot) { sn.EngineDraws = -1 }},
		{"fingerprint", "no slot fingerprint", func(sn *core.Snapshot) { sn.SlotFingerprint = 0 }},
		{"dimension grids", "dimension grids", func(sn *core.Snapshot) { sn.DimValues = [][]float64{{300}, {310}} }},
		{"grid windows", "has 2 windows", func(sn *core.Snapshot) { sn.DimValues = [][]float64{{300, 310}} }},
		{"refit dimension", "names dimension", func(sn *core.Snapshot) { sn.Respacings = []core.RespaceRecord{{Dim: 3}} }},
		{"replica ID", "out of range or duplicated", func(sn *core.Snapshot) { sn.Replicas[1].ID = 0 }},
		{"duplicated slot", "not a permutation", func(sn *core.Snapshot) {
			sn.Replicas[1].Slot = sn.Replicas[0].Slot
			sn.SlotHistory[len(sn.SlotHistory)-1][1] = sn.Replicas[0].Slot
		}},
		{"short synth", "coordinates", func(sn *core.Snapshot) { sn.Replicas[2].Synth = sn.Replicas[2].Synth[:1] }},
		{"cycle", "segments, outside", func(sn *core.Snapshot) { sn.Replicas[2].Cycle = -1 << 40 }},
		{"rows for events", "slot-history rows (4 retained) for 4 exchange events", func(sn *core.Snapshot) { sn.SlotRows++ }},
		{"short row", "slots, spec", func(sn *core.Snapshot) { sn.SlotHistory[0] = sn.SlotHistory[0][:3] }},
		{"last row", "last slot-history row", func(sn *core.Snapshot) {
			sn.Replicas[0].Slot, sn.Replicas[1].Slot = sn.Replicas[1].Slot, sn.Replicas[0].Slot
		}},
	} {
		sn, err := core.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		c.corrupt(sn)
		bad := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(bad, mustEncodeSnapshot(t, sn), 0o644); err != nil {
			t.Fatal(err)
		}
		code, msg := postRaw(t, ts.URL, launchBody(simBody("checked", 8, 4, 5), resBody8,
			fmt.Sprintf(`"resume": %q`, bad)))
		if code != http.StatusBadRequest || !strings.Contains(msg, serve.ErrResume.Error()) ||
			!strings.Contains(msg, c.want) || strings.Contains(msg, `"id"`) {
			t.Errorf("%s: %d %s, want 400 carrying %q and %q", c.name, code, msg, serve.ErrResume, c.want)
		}
		if n, u := len(reg.List()), reg.Pool().Used(); n != runs || u != used {
			t.Errorf("%s: %d runs and %d pool cores after the refusal, want %d and %d", c.name, n, u, runs, used)
		}
	}
	cancelRun(t, ts.URL, sibling.ID)
}

func mustEncodeSnapshot(t *testing.T, sn *core.Snapshot) []byte {
	t.Helper()
	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// validateExposition checks Prometheus text-format invariants: every
// sample belongs to the most recently declared family (families are
// contiguous), lines parse, and no series (name + label set) repeats.
func validateExposition(t *testing.T, body string) {
	t.Helper()
	if !strings.HasSuffix(body, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	declared := map[string]bool{}
	current := ""
	series := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if declared[parts[2]] {
				t.Fatalf("family %s declared twice (runs interleaved across families)", parts[2])
			}
			declared[parts[2]] = true
			current = parts[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !declared[name] && !declared[base] {
			t.Fatalf("sample %q precedes its TYPE declaration", line)
		}
		if name != current && base != current &&
			!strings.HasPrefix(name, "repexd_") {
			t.Fatalf("sample %q outside its family block (current %q)", line, current)
		}
		key := line[:strings.LastIndex(line, " ")]
		if series[key] {
			t.Fatalf("duplicate series %q", key)
		}
		series[key] = true
	}
}

// TestRegistryMetricsNoCollision is the gauge-collision regression
// test: two runs with an identical dimension layout must stay distinct
// series — labelled by run id — in both per-run and aggregate scrapes,
// and both expositions must be valid Prometheus text.
func TestRegistryMetricsNoCollision(t *testing.T) {
	_, ts := newDaemon(t, 0, 0)
	ids := make([]string, 2)
	for i := range ids {
		// Same layout (8-replica 1-dim T ladder), different seeds.
		st, code := postRun(t, ts.URL, launchBody(
			simBody(fmt.Sprintf("twin-%d", i), 8, 10, int64(50+i)), resBody8, ""))
		if code != http.StatusCreated {
			t.Fatalf("launch twin-%d: %d", i, code)
		}
		ids[i] = st.ID
		waitFor(t, ts.URL, st.ID, func(s serve.RunStatus) bool { return s.State == "completed" }, "completion")
	}

	for _, id := range ids {
		body := string(get(t, ts.URL+"/runs/"+id+"/metrics"))
		validateExposition(t, body)
		for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if !strings.Contains(line, fmt.Sprintf("run=%q", id)) {
				t.Fatalf("per-run scrape of %s has an unlabelled sample %q", id, line)
			}
		}
	}

	body := string(get(t, ts.URL+"/metrics"))
	validateExposition(t, body)
	// Both runs share pair label sets; the run label must keep the
	// series apart in one scrape.
	for _, id := range ids {
		want := fmt.Sprintf("repex_pair_attempts_total{run=%q,dim=\"0\",pair=\"0\"}", id)
		if !strings.Contains(body, want) {
			t.Fatalf("aggregate scrape missing %s", want)
		}
	}
	if !strings.Contains(body, `repexd_runs{state="completed"} 2`) {
		t.Fatalf("aggregate scrape missing the registry run-state gauge:\n%s", body[:min(len(body), 600)])
	}
	if !bytes.Contains([]byte(body), []byte("repexd_pool_cores_total 0")) {
		t.Fatal("aggregate scrape missing the pool gauges")
	}
}

// TestRegistryDaemonRows: the aggregate scrape times every request it
// served by route (the mux pattern), before the scrape itself; counts the
// event stream without timing it; and counts no panic.
func TestRegistryDaemonRows(t *testing.T) {
	reg, ts := newDaemon(t, 0, 0)
	do := func(method, path, body string) []byte {
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Body.Bytes()
	}
	var st serve.RunStatus
	if err := json.Unmarshal(do(http.MethodPost, "/runs", launchBody(simBody("rows", 4, 3, 1), resBody8, "")), &st); err != nil {
		t.Fatal(err)
	}
	readSSE(t, ts.URL+"/runs/"+st.ID+"/events")
	do(http.MethodGet, "/runs/"+st.ID+"/status", "")
	do(http.MethodGet, "/runs/"+st.ID+"/status", "")
	body := string(do(http.MethodGet, "/metrics", ""))
	validateExposition(t, body)
	for _, want := range []string{
		`repexd_http_request_duration_seconds_count{route="POST /runs"} 1`,
		`repexd_http_request_duration_seconds_bucket{route="GET /runs/{id}/status",le="+Inf"} 2`,
		`repexd_http_request_duration_seconds_count{route="GET /runs/{id}/status"} 2`,
		`repexd_http_request_duration_seconds_count{route="GET /metrics"} 0`,
		"repexd_sse_streams_total 1",
		"repexd_run_panics_total 0",
		// The scrape is in flight while it renders itself.
		`repexd_http_requests_in_flight{route="GET /metrics"} 1`,
		`repexd_http_requests_in_flight{route="POST /runs"} 0`,
	} {
		if !strings.Contains(body, "\n"+want+"\n") {
			t.Errorf("aggregate scrape has no line %s", want)
		}
	}
	if strings.Contains(body, `route="GET /runs/{id}/events"`) {
		t.Error("the event-stream route is timed")
	}
	if !strings.Contains(body, "\ngo_build_info{goversion=\""+runtime.Version()+"\",") {
		t.Error("aggregate scrape has no runtime block naming this toolchain")
	}
	if run := string(do(http.MethodGet, "/runs/"+st.ID+"/metrics", "")); strings.Contains(run, "\ngo_") {
		t.Error("a run's own scrape carries the daemon's runtime block")
	}
}
