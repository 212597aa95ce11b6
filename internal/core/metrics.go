package core

import (
	"fmt"
	"strings"

	"repro/internal/task"
)

// PhaseRecord aggregates the task results of one phase (MD or exchange)
// of one sub-cycle.
type PhaseRecord struct {
	// Wall is the phase duration from first submission to last
	// completion (barrier to barrier in the synchronous pattern).
	Wall float64
	// MaxExec is the longest task execution time (what the barrier
	// waits on).
	MaxExec float64
	// SumExec accumulates execution time over the phase's tasks.
	SumExec float64
	// MaxData is the longest per-task staging (in+out) time: T_data.
	MaxData float64
	// MaxLaunch is the longest per-task launch overhead: T_RP-over.
	MaxLaunch float64
	// Tasks and Failures count the phase's tasks.
	Tasks    int
	Failures int
	// ExecCoreSeconds is the sum over tasks of exec * cores, used for
	// utilization accounting.
	ExecCoreSeconds float64
}

// absorb merges a task result into the record.
func (p *PhaseRecord) absorb(r task.Result) {
	p.Tasks++
	if r.Failed() {
		p.Failures++
	}
	if r.Exec > p.MaxExec {
		p.MaxExec = r.Exec
	}
	p.SumExec += r.Exec
	if d := r.StageIn + r.StageOut; d > p.MaxData {
		p.MaxData = d
	}
	if r.Launch > p.MaxLaunch {
		p.MaxLaunch = r.Launch
	}
	p.ExecCoreSeconds += r.Exec * float64(r.Spec.Cores)
}

// CycleRecord is the timing record of one sub-cycle: the MD phase plus
// the exchange phase along one dimension. A full M-REMD cycle consists
// of one sub-cycle per dimension, matching the paper's statement that
// the M-REMD cycle time is the sum of 1D cycle times per dimension.
type CycleRecord struct {
	Cycle int
	// Dim is the exchange dimension of this sub-cycle.
	Dim int
	// At is the runtime time the exchange event fired, letting tests and
	// diagnostics order exchange events against other runtime activity
	// (e.g. proving an event fired while a relaunch was still in flight).
	At float64
	MD PhaseRecord
	EX PhaseRecord
	// RepExOverhead is the client-side task-preparation time charged
	// this sub-cycle: T_RepEx-over.
	RepExOverhead float64
	// Wall is the total sub-cycle duration.
	Wall float64
	// Attempted and Accepted count exchange decisions.
	Attempted int
	Accepted  int
}

// MeanExec returns the mean task execution time (0 for no tasks).
func (p PhaseRecord) MeanExec() float64 {
	if p.Tasks == 0 {
		return 0
	}
	return p.SumExec / float64(p.Tasks)
}

// TMD returns the MD time component of Eq. 1: the typical (mean) MD task
// execution time, the paper's "time to perform X simulation time-steps".
// The barrier cost of stragglers shows up in Wall and in utilization, not
// here.
func (c CycleRecord) TMD() float64 { return c.MD.MeanExec() }

// TEX returns the exchange time component: the full exchange phase wall
// time, which for salt exchange includes the single-point-energy waves.
func (c CycleRecord) TEX() float64 { return c.EX.Wall }

// TData returns the data movement component.
func (c CycleRecord) TData() float64 { return c.MD.MaxData + c.EX.MaxData }

// TRP returns the runtime (pilot) overhead component.
func (c CycleRecord) TRP() float64 { return c.MD.MaxLaunch + c.EX.MaxLaunch }

// AcceptanceRatio returns accepted/attempted (0 if none attempted).
func (c CycleRecord) AcceptanceRatio() float64 {
	if c.Attempted == 0 {
		return 0
	}
	return float64(c.Accepted) / float64(c.Attempted)
}

// Report is the outcome of a complete REMD simulation run.
type Report struct {
	Name    string
	DimCode string
	Pattern Pattern
	// Trigger names the exchange-trigger policy the run executed under
	// ("barrier", "window", "count", "adaptive", ...).
	Trigger  string
	Mode     Mode
	Engine   string
	Replicas int
	Cores    int
	Cycles   int

	Records []CycleRecord

	// Start and End bracket the whole simulation in runtime seconds.
	Start, End float64

	// MDExecCoreSeconds accumulates exec*cores over all MD tasks; the
	// numerator of the utilization metric (Eq. 4).
	MDExecCoreSeconds float64

	Dropped    int
	Relaunches int
	// CancelledUnits counts the in-flight MD segments discarded when the
	// run was cancelled through RunContext; their segments are redone on
	// resume.
	CancelledUnits int
	// Preemptions counts the preemption notices the run's pilots
	// received (drained from an elastic runtime's resource events).
	Preemptions int

	// SlotHistory records each replica's slot after every exchange event
	// (row = event, column = replica ID; one event per sub-cycle under
	// the barrier trigger). The ladder-mixing diagnostics (round trips,
	// full traversals) are analysis.Collector's, which reads the same
	// rows from each ExchangeEvent. When Spec.HistoryTail is positive
	// only the most recent rows are retained; SlotRows and
	// SlotFingerprint still cover the full run. The rows are read-only views: each is written once,
	// when its event is recorded, and shared with that event's
	// ExchangeEvent.Slots and with every snapshot that holds it.
	SlotHistory [][]int
	// SlotRows counts every slot-history row ever recorded, including
	// rows rotated out of SlotHistory by Spec.HistoryTail.
	SlotRows int
	// SlotFingerprint is the rolling FNV-1a fingerprint over every
	// recorded row, retained or rotated out (see HistoryFingerprint); the
	// fingerprint of an empty history is the FNV offset basis.
	SlotFingerprint uint64

	// ExchangeEvents counts exchange phases executed.
	ExchangeEvents int
}

// Makespan returns the total wall (virtual) time of the run.
func (r *Report) Makespan() float64 { return r.End - r.Start }

// AvgCycleTime returns the mean duration of a full cycle (all dimensions'
// sub-cycles summed), the quantity plotted throughout the paper's
// evaluation ("average of 4 simulation cycles").
func (r *Report) AvgCycleTime() float64 {
	return r.perCycleMean(func(rec *CycleRecord) float64 { return rec.Wall })
}

// perCycleMean returns the mean over cycles of the per-cycle sum of
// part. It folds in record order — each cycle's sum as its records come,
// then the sums in the order their cycles first appear — so the float
// additions, and the result's bits, are the same on every call.
func (r *Report) perCycleMean(part func(rec *CycleRecord) float64) float64 {
	if len(r.Records) == 0 {
		return 0
	}
	index := map[int]int{} // cycle -> its position in sums
	var sums []float64
	for i := range r.Records {
		rec := &r.Records[i]
		k, ok := index[rec.Cycle]
		if !ok {
			k = len(sums)
			index[rec.Cycle] = k
			sums = append(sums, 0)
		}
		sums[k] += part(rec)
	}
	sum := 0.0
	for _, w := range sums {
		sum += w
	}
	return sum / float64(len(sums))
}

// Decomposition holds per-cycle averages of the Eq. 1 components.
type Decomposition struct {
	TMD, TEX, TData, TRepEx, TRP float64
}

// Decompose averages the Eq. 1 components per full cycle. For M-REMD the
// components of the per-dimension sub-cycles are summed within a cycle.
func (r *Report) Decompose() Decomposition {
	var d Decomposition
	if len(r.Records) == 0 {
		return d
	}
	cycles := map[int]bool{}
	for _, rec := range r.Records {
		cycles[rec.Cycle] = true
		d.TMD += rec.TMD()
		d.TEX += rec.TEX()
		d.TData += rec.TData()
		d.TRepEx += rec.RepExOverhead
		d.TRP += rec.TRP()
	}
	n := float64(len(cycles))
	d.TMD /= n
	d.TEX /= n
	d.TData /= n
	d.TRepEx /= n
	d.TRP /= n
	return d
}

// AvgMDWall returns the mean per-cycle MD phase wall time (summed over
// dimensions within a cycle). In Execution Mode II this includes the
// batched waves, which is what the paper's strong-scaling Figure 10
// plots as "MD-times".
func (r *Report) AvgMDWall() float64 {
	return r.perCycleMean(func(rec *CycleRecord) float64 { return rec.MD.Wall })
}

// DimDecompose averages TMD and TEX per cycle for a single dimension
// index (used by the M-REMD figures, which report exchange time for each
// dimension separately).
func (r *Report) DimDecompose(dim int) (tmd, tex float64) {
	n := 0
	for _, rec := range r.Records {
		if rec.Dim != dim {
			continue
		}
		tmd += rec.TMD()
		tex += rec.TEX()
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return tmd / float64(n), tex / float64(n)
}

// AcceptanceRatioByDim returns accepted/attempted over all sub-cycles of
// the given dimension.
func (r *Report) AcceptanceRatioByDim(dim int) float64 {
	att, acc := 0, 0
	for _, rec := range r.Records {
		if rec.Dim == dim {
			att += rec.Attempted
			acc += rec.Accepted
		}
	}
	if att == 0 {
		return 0
	}
	return float64(acc) / float64(att)
}

// Utilization returns the fraction of allocated core time spent in MD
// execution (Eq. 4: U = U_pattern / U_max, since U_max corresponds to
// cores doing MD 100% of the time).
func (r *Report) Utilization() float64 {
	span := r.Makespan()
	if span <= 0 || r.Cores == 0 {
		return 0
	}
	return r.MDExecCoreSeconds / (float64(r.Cores) * span)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	trigger := r.Trigger
	if trigger == "" {
		trigger = "?"
	}
	fmt.Fprintf(&b, "REMD %s [%s] pattern=%s trigger=%s mode=%s engine=%s\n",
		r.Name, r.DimCode, r.Pattern, trigger, r.Mode, r.Engine)
	fmt.Fprintf(&b, "  replicas=%d cores=%d cycles=%d makespan=%.1fs\n",
		r.Replicas, r.Cores, r.Cycles, r.Makespan())
	d := r.Decompose()
	fmt.Fprintf(&b, "  avg cycle=%.1fs  T_MD=%.1f T_EX=%.1f T_data=%.2f T_RepEx=%.2f T_RP=%.2f\n",
		r.AvgCycleTime(), d.TMD, d.TEX, d.TData, d.TRepEx, d.TRP)
	fmt.Fprintf(&b, "  utilization=%.1f%% dropped=%d relaunches=%d\n",
		100*r.Utilization(), r.Dropped, r.Relaunches)
	return b.String()
}

// WeakScalingEfficiency implements Eq. 2: Ew = T1/TN * 100%.
func WeakScalingEfficiency(t1, tn float64) float64 {
	if tn <= 0 {
		return 0
	}
	return t1 / tn * 100
}

// StrongScalingEfficiency implements Eq. 3: Es = T1/(N*TN) * 100%, where
// N is the core-count multiple relative to the baseline.
func StrongScalingEfficiency(t1, tn float64, coreMultiple float64) float64 {
	if tn <= 0 || coreMultiple <= 0 {
		return 0
	}
	return t1 / (coreMultiple * tn) * 100
}
