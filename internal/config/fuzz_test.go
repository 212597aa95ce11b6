package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseLaunch throws arbitrary bytes at the repexd run-launch
// parser — the daemon's network-facing input — and requires it to
// either return an error or a launch that survives a second
// normalization, without panicking. The corpus is seeded from every
// committed config file: simulation and resource files are wrapped
// into launch bodies (the exact shape POST /runs receives) and raw
// file bytes ride along for structural variety.
func FuzzParseLaunch(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no committed configs found to seed the corpus")
	}
	var sims, ress []string
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Classify by shape so realistic launch bodies get seeded too.
		if _, err := ParseSimulation(data); err == nil {
			sims = append(sims, string(data))
		}
		if _, _, err := ParseResource(data); err == nil {
			ress = append(ress, string(data))
		}
	}
	if len(sims) == 0 || len(ress) == 0 {
		f.Fatalf("corpus classified %d sim and %d res files; want both non-empty", len(sims), len(ress))
	}
	for _, sim := range sims {
		for _, res := range ress {
			f.Add([]byte(`{"sim":` + sim + `,"res":` + res + `}`))
			f.Add([]byte(`{"sim":` + sim + `,"res":` + res +
				`,"checkpoint":"/tmp/ck.json","checkpoint_every":3}`))
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"sim":{},"res":{}}`))
	f.Add([]byte(`{"sim":null,"res":null}`))
	// 254 bytes that ask for a 16 GiB ladder: the grid cap refuses them.
	f.Add([]byte(`{"sim": {"name": "sixteen-gib-ask", "dimensions": [{"type": "T", "count": 2147483648, "min": 273, "max": 373}], "cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": 2}, "res": {"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 8}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ParseLaunch(data)
		if err != nil {
			if l != nil {
				t.Fatalf("ParseLaunch returned both a launch and error %v", err)
			}
			return
		}
		if l.Sim == nil || l.Res == nil {
			t.Fatal("accepted launch missing a block")
		}
		// An accepted launch must be internally consistent: Normalize
		// and Resolve were already run, so running them again must
		// succeed (idempotence), and the spec dry run must still pass.
		if err := l.Sim.Normalize(); err != nil {
			t.Fatalf("accepted launch fails re-normalization: %v", err)
		}
		if _, err := l.Sim.ToSpec(); err != nil {
			t.Fatalf("accepted launch fails spec construction: %v", err)
		}
		if _, _, err := l.Res.Resolve(); err != nil {
			t.Fatalf("accepted launch fails resource re-resolution: %v", err)
		}
		// Accepted launches round-trip through JSON: the daemon echoes
		// the body into run metadata.
		if _, err := json.Marshal(l); err != nil {
			t.Fatalf("accepted launch does not re-marshal: %v", err)
		}
		if l.CheckpointEvery > 0 && strings.TrimSpace(l.Checkpoint) == "" {
			t.Fatal("accepted checkpoint_every without a checkpoint path")
		}
	})
}

// FuzzResourceChaos throws arbitrary bytes at the resource decoder and
// its chaos-plan conversion, the last outside input without a lane of
// its own: DecodeResource then Resolve never panic, and the chaos plan
// of an accepted resource carries every scripted event, targets only
// routing slots that exist and passes ChaosPlan.Validate. Seeded from
// the committed chaos resource files.
func FuzzResourceChaos(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "configs", "chaos_*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no committed chaos configs found to seed the corpus")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"machine":"small","nodes":1,"cores_per_node":4,"pilot_cores":4,"chaos":[{"pilot":-1,"kind":"resize","cores":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResource(data)
		if err != nil {
			return
		}
		_, ps, err := r.Resolve()
		if err != nil {
			return
		}
		if ps.Chaos == nil {
			if len(r.Chaos) != 0 {
				t.Fatalf("accepted resource dropped its %d chaos events", len(r.Chaos))
			}
			return
		}
		if len(ps.Chaos.Events) != len(r.Chaos) {
			t.Fatalf("chaos plan has %d events, resource scripted %d", len(ps.Chaos.Events), len(r.Chaos))
		}
		if err := ps.Chaos.Validate(); err != nil {
			t.Fatalf("accepted chaos plan fails validation: %v", err)
		}
		slots := max(1, ps.Pilots)
		for _, e := range ps.Chaos.Events {
			if e.Pilot < 0 || e.Pilot >= slots {
				t.Fatalf("chaos event at t=%g targets slot %d of %d", e.At, e.Pilot, slots)
			}
		}
	})
}
