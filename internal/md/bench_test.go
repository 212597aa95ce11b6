package md

import "testing"

// The md legs of scripts/ci/bench_gate.sh. Both report ns/atom — per
// force evaluation, and per integration step — so that
// LangevinStep ÷ MDForce on the same system reads as "force calls per
// step": what the integrator adds on top of the one evaluation a step
// needs (BENCH_md.json bounds it below 1.5). BenchmarkRunSegment reports
// the same unit for a sampled segment, so RunSegment ÷ LangevinStep
// reads as what sampling adds on top of integrating; it is not gated
// (TestSegmentEvaluatesOnceAStep counts the evaluations instead).

func BenchmarkMDForce(b *testing.B) {
	systems := []struct {
		name  string
		build func() (*System, *State)
	}{
		// The replica of every real-MD run: open box, no cutoff.
		{"dipeptide", func() (*System, *State) {
			top, st := BuildAlanineDipeptide()
			return MustNewSystem(top, Box{}, 0), st
		}},
		// Periodic, truncated and shifted LJ: the O(n²) pair walk itself.
		{"lj256", func() (*System, *State) {
			top, st, box := BuildLJFluid(256, 0.021)
			return MustNewSystem(top, box, 8.5), st
		}},
	}
	for _, s := range systems {
		b.Run(s.name, func(b *testing.B) {
			sys, st := s.build()
			f := make([]Vec3, sys.Top.N())
			prm := Params{TemperatureK: 300}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.EnergyForces(st, prm, f)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sys.Top.N()), "ns/atom")
		})
	}
}

func BenchmarkLangevinStep(b *testing.B) {
	b.Run("dipeptide", func(b *testing.B) {
		top, st := BuildAlanineDipeptide()
		sys := MustNewSystem(top, Box{}, 0)
		prm := Params{TemperatureK: 300}
		Minimize(sys, st, prm, 200, 1e-2)
		integ := NewLangevin(0.001, 5, 1)
		// A segment per iteration, as RunSegment drives it; the force
		// evaluation on entry is 1/50 of a step.
		const steps = 50
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			integ.Step(sys, st, prm, steps)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps*top.N()), "ns/atom")
	})
}

// BenchmarkRunSegment is a real engine's segment: 2000 steps sampled
// every 25, into a reused trajectory.
func BenchmarkRunSegment(b *testing.B) {
	b.Run("dipeptide", func(b *testing.B) {
		top, st := BuildAlanineDipeptide()
		sys := MustNewSystem(top, Box{}, 0)
		prm := Params{TemperatureK: 300}
		Minimize(sys, st, prm, 200, 1e-2)
		integ := NewLangevin(0.001, 5, 1)
		var tr Trajectory
		const steps, every = 2000, 25
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunSegment(&tr, sys, st, prm, integ, steps, every)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps*top.N()), "ns/atom")
	})
}
