package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, false},
		{"zero cores", func(c *Config) { c.CoresPerNode = 0 }, false},
		{"zero speed", func(c *Config) { c.SpeedFactor = 0 }, false},
		{"neg meta", func(c *Config) { c.FS.MetaLatency = -1 }, false},
		{"zero bw", func(c *Config) { c.FS.Bandwidth = 0 }, false},
		{"bad failure prob", func(c *Config) { c.FailureProb = 1.5 }, false},
	}
	for _, tc := range cases {
		cfg := Stampede()
		tc.mut(&cfg)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPresetsAreValid(t *testing.T) {
	for _, cfg := range []Config{Stampede(), SuperMIC(), Small(8, 16)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", cfg.Name, err)
		}
	}
}

func TestTotalCores(t *testing.T) {
	cfg := Small(8, 16)
	if got := cfg.TotalCores(); got != 128 {
		t.Fatalf("TotalCores = %d, want 128", got)
	}
}

// allocate drives an allocation request of n cores from a goroutine
// process, parking it between steps.
func allocate(p *sim.Proc, c *Cluster, n int) (*Allocation, error) {
	a := new(Allocation)
	if err := c.Allocate(a, n); err != nil {
		return nil, err
	}
	for !a.Step(p) {
		p.Park()
	}
	return a, nil
}

func TestAllocateAfterQueueWait(t *testing.T) {
	e := sim.NewEnv()
	cfg := Small(4, 8)
	cfg.QueueWait = 12
	cl := MustNew(e, cfg, 1)
	var granted float64
	e.Go("p", func(p *sim.Proc) {
		a, err := allocate(p, cl, 16)
		if err != nil {
			t.Errorf("Allocate: %v", err)
			return
		}
		granted = a.Granted
		a.Release()
	})
	e.Run()
	if granted != 12 {
		t.Fatalf("granted at %v, want 12 (queue wait)", granted)
	}
	if cl.CoresInUse() != 0 {
		t.Fatalf("cores in use %d after release, want 0", cl.CoresInUse())
	}
}

func TestAllocateTooLarge(t *testing.T) {
	e := sim.NewEnv()
	cl := MustNew(e, Small(2, 4), 1)
	e.Go("p", func(p *sim.Proc) {
		if _, err := allocate(p, cl, 9); err == nil {
			t.Error("Allocate(9) on 8-core machine succeeded, want error")
		}
		if _, err := allocate(p, cl, 0); err == nil {
			t.Error("Allocate(0) succeeded, want error")
		}
	})
	e.Run()
}

func TestAllocationContention(t *testing.T) {
	// Two full-machine allocations must serialize.
	e := sim.NewEnv()
	cfg := Small(2, 4)
	cfg.QueueWait = 0
	cl := MustNew(e, cfg, 1)
	var second float64
	e.Go("a", func(p *sim.Proc) {
		a, _ := allocate(p, cl, 8)
		p.Sleep(100)
		a.Release()
	})
	e.Go("b", func(p *sim.Proc) {
		a, _ := allocate(p, cl, 8)
		second = p.Now()
		a.Release()
	})
	e.Run()
	if second != 100 {
		t.Fatalf("second allocation granted at %v, want 100", second)
	}
}

func TestDoubleReleaseIsIdempotent(t *testing.T) {
	e := sim.NewEnv()
	cl := MustNew(e, Small(2, 4), 1)
	e.Go("p", func(p *sim.Proc) {
		a, _ := allocate(p, cl, 4)
		a.Release()
		a.Release() // must not panic or double-free
	})
	e.Run()
	if cl.CoresInUse() != 0 {
		t.Fatalf("cores in use %d, want 0", cl.CoresInUse())
	}
}

func TestStageFilesMetadataSerialization(t *testing.T) {
	// N concurrent single-file stagings serialize at the metadata
	// server: makespan ~= N * MetaLatency.
	e := sim.NewEnv()
	cfg := Small(4, 8)
	cfg.FS.MetaLatency = 0.01
	cfg.FS.Bandwidth = 1e12 // transfer time negligible
	cl := MustNew(e, cfg, 1)
	const n = 100
	for i := 0; i < n; i++ {
		e.Go("stager", func(p *sim.Proc) {
			cl.StageFiles(p, 1, 10)
		})
	}
	e.Run()
	want := n * 0.01
	if math.Abs(e.Now()-want) > 1e-6 {
		t.Fatalf("makespan %v, want %v (serialized metadata)", e.Now(), want)
	}
}

func TestStageFilesBandwidth(t *testing.T) {
	e := sim.NewEnv()
	cfg := Small(4, 8)
	cfg.FS.MetaLatency = 0
	cfg.FS.Bandwidth = 1e6
	cl := MustNew(e, cfg, 1)
	var elapsed float64
	e.Go("p", func(p *sim.Proc) {
		elapsed = cl.StageFiles(p, 1, 2e6)
	})
	e.Run()
	if math.Abs(elapsed-2.0) > 1e-9 {
		t.Fatalf("transfer of 2 MB at 1 MB/s took %v, want 2", elapsed)
	}
}

func TestStageFilesZeroIsFree(t *testing.T) {
	e := sim.NewEnv()
	cl := MustNew(e, Small(4, 8), 1)
	e.Go("p", func(p *sim.Proc) {
		if d := cl.StageFiles(p, 0, 0); d != 0 {
			t.Errorf("StageFiles(0,0) took %v, want 0", d)
		}
	})
	e.Run()
}

func TestScaleDurationSpeedFactor(t *testing.T) {
	e := sim.NewEnv()
	cfg := Small(2, 4)
	cfg.SpeedFactor = 2.0
	cfg.ExecJitter = 0
	cl := MustNew(e, cfg, 1)
	if got := cl.ScaleDuration(10); got != 5 {
		t.Fatalf("ScaleDuration(10) = %v, want 5 on 2x machine", got)
	}
}

func TestScaleDurationJitterMeanNearOne(t *testing.T) {
	e := sim.NewEnv()
	cfg := Small(2, 4)
	cfg.SpeedFactor = 1
	cfg.ExecJitter = 0.1
	cl := MustNew(e, cfg, 7)
	sum := 0.0
	const n = 5000
	for i := 0; i < n; i++ {
		sum += cl.ScaleDuration(1)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("jitter mean %v, want ~1", mean)
	}
}

func TestTaskFailsRate(t *testing.T) {
	e := sim.NewEnv()
	cfg := Small(2, 4)
	cfg.FailureProb = 0.2
	cl := MustNew(e, cfg, 99)
	fails := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if cl.TaskFails() {
			fails++
		}
	}
	rate := float64(fails) / n
	if math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("failure rate %v, want ~0.2", rate)
	}
	_, _, launched, failed := cl.Stats()
	if launched != n || failed != fails {
		t.Fatalf("stats launched=%d failed=%d, want %d/%d", launched, failed, n, fails)
	}
}

func TestTaskFailsZeroProb(t *testing.T) {
	e := sim.NewEnv()
	cl := MustNew(e, Small(2, 4), 1)
	for i := 0; i < 1000; i++ {
		if cl.TaskFails() {
			t.Fatal("TaskFails() = true with zero failure probability")
		}
	}
}

// Property: staging elapsed time is nondecreasing in both file count and
// byte volume.
func TestPropertyStagingMonotonic(t *testing.T) {
	f := func(nf uint8, kb uint16) bool {
		run := func(files int, bytes int64) float64 {
			e := sim.NewEnv()
			cfg := Small(2, 4)
			cfg.FS.MetaLatency = 0.001
			cfg.FS.Bandwidth = 1e6
			cl := MustNew(e, cfg, 1)
			var d float64
			e.Go("p", func(p *sim.Proc) { d = cl.StageFiles(p, files, bytes) })
			e.Run()
			return d
		}
		files := int(nf % 20)
		bytes := int64(kb) * 100
		base := run(files, bytes)
		moreFiles := run(files+1, bytes)
		moreBytes := run(files, bytes+1000)
		return moreFiles >= base && moreBytes >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
