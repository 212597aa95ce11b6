// Command fault_tolerance demonstrates the resilient execution layer:
//
//  1. a walltime-bounded pilot expires mid-run, its executing MD
//     segments fail with a resource-loss error, the dispatcher resubmits
//     them without blocking healthy replicas, and the failover runtime
//     provisions a fresh pilot (paying the batch queue again);
//  2. the run writes a checkpoint every exchange event, is "killed", and
//     a second process resumes from the snapshot — reproducing the
//     uninterrupted run's slot history exactly.
//
// Everything runs in virtual time: hours of simulated supercomputer
// time finish in milliseconds.
package main

import (
	"fmt"
	"hash/fnv"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
	"repro/internal/sim"
)

func spec() *core.Spec {
	return &core.Spec{
		Name:            "fault-demo",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 8)}},
		Trigger:         core.NewBarrierTrigger(),
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          4,
		FaultPolicy:     core.FaultRelaunch,
		Seed:            21,
	}
}

// run executes the spec on a walltime-bounded failover runtime,
// optionally resuming from a snapshot, and returns the report plus every
// checkpoint captured.
func run(sp *core.Spec, walltime float64) (*core.Report, []*core.Snapshot, int) {
	var snaps []*core.Snapshot
	sp.SnapshotEvery = 1
	sp.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }

	cfg := cluster.SuperMIC()
	cfg.ExecJitter = 0
	cfg.FailureProb = 0

	env := sim.NewEnv()
	cl := cluster.MustNew(env, cfg, sp.Seed+1)
	eng := engines.NewAmberVirtual(2881, sp.Seed+2)
	var rt *pilot.Runtime
	var report *core.Report
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		var err error
		rt, err = pilot.NewFailoverRuntime(cl, pilot.Description{Cores: 8, Walltime: walltime}, p)
		if err != nil {
			runErr = err
			return
		}
		simu, err := core.New(sp, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		report, runErr = simu.Run()
	})
	env.Run()
	if runErr != nil {
		log.Fatal(runErr)
	}
	return report, snaps, rt.Relaunched()
}

func fingerprint(history [][]int) uint64 {
	f := fnv.New64a()
	for _, row := range history {
		for _, s := range row {
			fmt.Fprintf(f, "%d,", s)
		}
	}
	return f.Sum64()
}

func main() {
	// Part 1: pilot walltime failover. One MD segment is ~140 virtual
	// seconds; a 250 s walltime kills the pilot inside the second
	// segment, and the run still completes with no replica lost.
	rep, _, relaunched := run(spec(), 250)
	fmt.Println("— walltime-bounded pilots with failover —")
	fmt.Print(rep)
	fmt.Printf("pilot failovers: %d, segment relaunches: %d, replicas lost: %d\n\n",
		relaunched, rep.Relaunches, rep.Dropped)

	// Part 2: checkpoint/restart. Run uninterrupted (generous walltime),
	// keep the snapshot taken after exchange event 2, then resume a
	// fresh simulation from it and compare histories.
	full, snaps, _ := run(spec(), 0)
	data, err := snaps[1].Encode() // snapshot after event 2
	if err != nil {
		log.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		log.Fatal(err)
	}
	resumedSpec := spec()
	resumedSpec.Resume = snap
	resumed, _, _ := run(resumedSpec, 0)

	fmt.Println("— checkpoint/restart —")
	fmt.Printf("snapshot: %d bytes at exchange event %d (trigger %q)\n",
		len(data), snap.Events, snap.Trigger)
	fmt.Printf("uninterrupted history: %d rows, fingerprint %#x\n",
		len(full.SlotHistory), fingerprint(full.SlotHistory))
	fmt.Printf("resumed history:       %d rows, fingerprint %#x\n",
		len(resumed.SlotHistory), fingerprint(resumed.SlotHistory))
	if fingerprint(full.SlotHistory) == fingerprint(resumed.SlotHistory) {
		fmt.Println("resume is bit-exact: the killed run lost no science")
	} else {
		log.Fatal("resumed run diverged")
	}
}
