package config

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
)

const tsuJSON = `{
  "name": "tsu-demo",
  "engine": "amber",
  "atoms": 2881,
  "dimensions": [
    {"type": "T", "count": 4, "min": 273, "max": 373},
    {"type": "S", "values": [0.1, 0.2, 0.4]},
    {"type": "U", "count": 4, "torsion": "phi"}
  ],
  "cores_per_replica": 1,
  "steps_per_cycle": 6000,
  "cycles": 3,
  "seed": 42
}`

func TestParseSimulationTSU(t *testing.T) {
	s, err := ParseSimulation([]byte(tsuJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.DimCode() != "TSU" {
		t.Fatalf("dim code %q, want TSU", spec.DimCode())
	}
	if spec.Replicas() != 4*3*4 {
		t.Fatalf("replicas %d, want 48", spec.Replicas())
	}
	// Generated temperature ladder is geometric 273..373.
	ts := spec.Dims[0].Values
	if ts[0] != 273 || math.Abs(ts[3]-373) > 1e-9 {
		t.Fatalf("temperature ladder %v", ts)
	}
	// Default umbrella K is the paper's 0.02 kcal/mol/deg².
	if math.Abs(spec.Dims[2].K-core.UmbrellaK002) > 1e-9 {
		t.Fatalf("umbrella K %v, want %v", spec.Dims[2].K, core.UmbrellaK002)
	}
	if spec.Pattern != core.PatternSynchronous {
		t.Fatal("default pattern should be synchronous")
	}
}

func TestParseSimulationAsync(t *testing.T) {
	s, err := ParseSimulation([]byte(`{
	  "name": "a", "dimensions": [{"type":"T","count":4,"min":280,"max":340}],
	  "pattern": "async", "async_window_sec": 60,
	  "cores_per_replica": 1, "steps_per_cycle": 1000, "cycles": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := s.ToSpec()
	if spec.Pattern != core.PatternAsynchronous || spec.AsyncWindow != 60 {
		t.Fatalf("async config lost: %+v", spec)
	}
	if s.Atoms != 2881 {
		t.Fatalf("default atoms %d, want 2881", s.Atoms)
	}
}

func TestParseSimulationTriggers(t *testing.T) {
	base := `{"name":"x","dimensions":[{"type":"T","count":4,"min":280,"max":340}],
	  "cores_per_replica":1,"steps_per_cycle":1000,"cycles":2,`
	cases := []struct {
		name string
		tail string
		want string
		sync bool
	}{
		{"barrier", `"trigger":"barrier"}`, "*core.BarrierTrigger", true},
		{"window", `"trigger":"window","async_window_sec":30}`, "*core.WindowTrigger", false},
		{"count", `"trigger":"count","trigger_count":4}`, "*core.CountTrigger", false},
		{"adaptive", `"trigger":"adaptive","async_window_sec":30}`, "*core.AdaptiveTrigger", false},
		{"feedback", `"trigger":"feedback","async_window_sec":30,"target_acceptance":0.4,"window_events":32}`, "*core.FeedbackTrigger", false},
	}
	for _, tc := range cases {
		s, err := ParseSimulation([]byte(base + tc.tail))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		spec, err := s.ToSpec()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if spec.Trigger == nil {
			t.Fatalf("%s: no trigger selected", tc.name)
		}
		if got := fmt.Sprintf("%T", spec.Trigger); got != tc.want {
			t.Fatalf("%s: trigger type %s, want %s", tc.name, got, tc.want)
		}
		wantPattern := core.PatternAsynchronous
		if tc.sync {
			wantPattern = core.PatternSynchronous
		}
		if spec.Pattern != wantPattern {
			t.Fatalf("%s: pattern %v", tc.name, spec.Pattern)
		}
	}
}

func TestFeedbackTriggerKnobsReachPolicy(t *testing.T) {
	s, err := ParseSimulation([]byte(`{"name":"x",
	  "dimensions":[{"type":"T","count":4,"min":280,"max":340}],
	  "cores_per_replica":1,"steps_per_cycle":1000,"cycles":2,
	  "trigger":"feedback","async_window_sec":45,"async_min_ready":3,
	  "target_acceptance":0.4,"window_events":32}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	fb, ok := spec.Trigger.(*core.FeedbackTrigger)
	if !ok {
		t.Fatalf("trigger %T, want *core.FeedbackTrigger", spec.Trigger)
	}
	if fb.Initial != 45 || fb.Target != 0.4 || fb.WindowEvents != 32 || fb.MinReady != 3 {
		t.Fatalf("knobs lost in config round trip: %+v", fb)
	}
}

func TestParseSimulationErrors(t *testing.T) {
	cases := []string{
		`{bad json`,
		`{"name":"x","engine":"gromacs","dimensions":[{"type":"T","count":2,"min":1,"max":2}],"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"Q","count":2}],"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T"}],"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":300,"max":200}],"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"pattern":"turbo","cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"fault_policy":"explode","cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"psychic","cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"window","cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"count","trigger_count":1,"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"adaptive","cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"feedback","cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"feedback","async_window_sec":30,"target_acceptance":1.5,"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"feedback","async_window_sec":30,"window_events":-4,"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"barrier","target_acceptance":0.4,"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"trigger":"window","async_window_sec":30,"window_events":-4,"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
		`{"name":"x","dimensions":[{"type":"T","count":2,"min":200,"max":300}],"target_acceptance":0.4,"cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`,
	}
	for i, c := range cases {
		if s, err := ParseSimulation([]byte(c)); err == nil {
			if _, err2 := s.ToSpec(); err2 == nil {
				t.Errorf("case %d accepted", i)
			}
		}
	}
}

func TestUmbrellaDegreesConverted(t *testing.T) {
	s, err := ParseSimulation([]byte(`{
	  "name":"u","dimensions":[{"type":"U","values":[0,90,180,270],"torsion":"psi"}],
	  "cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := s.ToSpec()
	vals := spec.Dims[0].Values
	if math.Abs(vals[1]-math.Pi/2) > 1e-9 {
		t.Fatalf("90 deg became %v rad", vals[1])
	}
	// 270° wraps to -90°.
	if math.Abs(vals[3]+math.Pi/2) > 1e-9 {
		t.Fatalf("270 deg became %v rad, want -pi/2", vals[3])
	}
	if spec.Dims[0].Type != exchange.Umbrella {
		t.Fatal("type lost")
	}
}

func TestSaltLadderGenerated(t *testing.T) {
	s, err := ParseSimulation([]byte(`{
	  "name":"s","dimensions":[{"type":"S","count":3,"min":0.1,"max":0.5}],
	  "cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := s.ToSpec()
	want := []float64{0.1, 0.3, 0.5}
	for i, v := range spec.Dims[0].Values {
		if math.Abs(v-want[i]) > 1e-9 {
			t.Fatalf("salt ladder %v, want %v", spec.Dims[0].Values, want)
		}
	}
}

func TestParseResource(t *testing.T) {
	cfg, pilot, err := ParseResource([]byte(`{"machine":"supermic","pilot_cores":512}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "supermic" || pilot.Cores != 512 {
		t.Fatalf("parsed %s/%d", cfg.Name, pilot.Cores)
	}
	if pilot.Walltime != 0 {
		t.Fatalf("default walltime %v, want 0 (unbounded)", pilot.Walltime)
	}
	cfg2, pilot2, err := ParseResource([]byte(`{"machine":"small","nodes":4,"cores_per_node":16,"pilot_cores":64,"failure_prob":0.05,"walltime_sec":3600}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.TotalCores() != 64 || cfg2.FailureProb != 0.05 {
		t.Fatalf("small cluster config %+v", cfg2)
	}
	if pilot2.Walltime != 3600 {
		t.Fatalf("walltime %v, want 3600", pilot2.Walltime)
	}
}

func TestParseResourceErrors(t *testing.T) {
	cases := []string{
		`{bad`,
		`{"machine":"lumi","pilot_cores":4}`,
		`{"machine":"small","pilot_cores":4}`,
		`{"machine":"supermic","pilot_cores":0}`,
		`{"machine":"supermic","pilot_cores":4,"walltime_sec":-10}`,
	}
	for i, c := range cases {
		if _, _, err := ParseResource([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestParseSimulationServeBlock(t *testing.T) {
	s, err := ParseSimulation([]byte(`{
		"name": "observed", "cores_per_replica": 1, "steps_per_cycle": 100, "cycles": 1,
		"dimensions": [{"type": "T", "count": 4, "min": 273, "max": 373}],
		"serve": {"listen": "127.0.0.1:9100"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Serve == nil || s.Serve.Listen != "127.0.0.1:9100" {
		t.Fatalf("serve block %+v, want listen 127.0.0.1:9100", s.Serve)
	}
	// The serve block is a cmd/repex concern; the core spec is unchanged.
	if _, err := s.ToSpec(); err != nil {
		t.Fatal(err)
	}
}

func TestServeBlockRequiresListen(t *testing.T) {
	_, err := ParseSimulation([]byte(`{
		"name": "observed", "cores_per_replica": 1, "steps_per_cycle": 100, "cycles": 1,
		"dimensions": [{"type": "T", "count": 4, "min": 273, "max": 373}],
		"serve": {}
	}`))
	if err == nil {
		t.Fatal("serve block without a listen address accepted")
	}
}

// TestPerDimTargetAcceptance: the map form of target_acceptance
// resolves per dimension by type code (a code covering every dimension
// of that type), back-compat with the scalar form is preserved, and
// malformed maps — unknown dimension codes, out-of-range ratios,
// non-feedback triggers — are rejected at parse time.
func TestPerDimTargetAcceptance(t *testing.T) {
	base := `{"name":"x",
	  "dimensions":[{"type":"T","count":4,"min":280,"max":340},
	                {"type":"U","count":4,"torsion":"phi"},
	                {"type":"U","count":3,"torsion":"psi"}],
	  "cores_per_replica":1,"steps_per_cycle":1000,"cycles":2,
	  "trigger":"feedback","async_window_sec":45,
	  "target_acceptance":%s}`

	s, err := ParseSimulation([]byte(fmt.Sprintf(base, `{"T":0.4,"U":0.25}`)))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	fb := spec.Trigger.(*core.FeedbackTrigger)
	if want := []float64{0.4, 0.25, 0.25}; !reflect.DeepEqual(fb.Targets, want) {
		t.Fatalf("per-dim targets %v, want %v (U covers both umbrella dims)", fb.Targets, want)
	}
	if fb.Target != 0 {
		t.Fatalf("scalar target %v alongside a map, want 0", fb.Target)
	}

	// Scalar form still parses (back-compat).
	s, err = ParseSimulation([]byte(fmt.Sprintf(base, `0.35`)))
	if err != nil {
		t.Fatal(err)
	}
	spec, err = s.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if fb := spec.Trigger.(*core.FeedbackTrigger); fb.Target != 0.35 || fb.Targets != nil {
		t.Fatalf("scalar form parsed as %v/%v", fb.Target, fb.Targets)
	}

	for _, tc := range []struct {
		name string
		ta   string
	}{
		{"unknown dim code", `{"T":0.4,"Q":0.3}`},
		{"code without a dimension", `{"T":0.4,"S":0.3}`},
		{"ratio at 1", `{"T":1.0}`},
		{"ratio at 0", `{"T":0}`},
		{"negative ratio", `{"U":-0.2}`},
	} {
		if _, err := ParseSimulation([]byte(fmt.Sprintf(base, tc.ta))); err == nil {
			t.Fatalf("%s: accepted target_acceptance %s", tc.name, tc.ta)
		}
	}

	// The map form is rejected on non-feedback triggers exactly like
	// the scalar form: silently dead acceptance control is worse than
	// an error.
	bad := `{"name":"x",
	  "dimensions":[{"type":"T","count":4,"min":280,"max":340}],
	  "cores_per_replica":1,"steps_per_cycle":1000,"cycles":2,
	  "trigger":"barrier","target_acceptance":{"T":0.4}}`
	if _, err := ParseSimulation([]byte(bad)); err == nil {
		t.Fatal("per-dim target_acceptance accepted under the barrier trigger")
	}
}

// TestGridCap: a grid of exactly maxReplicas parses, by one count or by
// a product; one replica more is refused naming the cap, whether a
// count or explicit values make it.
func TestGridCap(t *testing.T) {
	values := func(n int) string {
		v := make([]string, n)
		for i := range v {
			v[i] = fmt.Sprint(273 + i)
		}
		return "[" + strings.Join(v, ",") + "]"
	}
	for _, tc := range []struct {
		dims string
		ok   bool
	}{
		{`{"type":"T","count":65536,"min":273,"max":373}`, true},
		{`{"type":"T","count":65537,"min":273,"max":373}`, false},
		{`{"type":"T","count":256,"min":273,"max":373},{"type":"U","count":256,"torsion":"phi"}`, true},
		{`{"type":"T","count":256,"min":273,"max":373},{"type":"U","count":257,"torsion":"phi"}`, false},
		{`{"type":"T","values":` + values(257) + `},{"type":"U","count":256,"torsion":"phi"}`, false},
	} {
		_, err := ParseSimulation([]byte(`{"name":"x","dimensions":[` + tc.dims + `],
		  "cores_per_replica":1,"steps_per_cycle":1,"cycles":1}`))
		if tc.ok && err != nil {
			t.Errorf("%.60s: %v", tc.dims, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "above the cap of 65536")) {
			t.Errorf("%.60s: err = %v, want the cap", tc.dims, err)
		}
	}
}
