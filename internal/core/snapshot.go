package core

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/jsonx"
)

// Snapshot is a serializable checkpoint of a running simulation, taken
// after an exchange event. Together with the original Spec (same
// dimensions, seed and trigger) it restores the run exactly: replica
// slots, completed cycles, energies and synthetic coordinates, the
// orchestrator's RNG position, and the report counters accumulated so
// far. Runs longer than one pilot walltime chain through snapshots:
// kill, resume, repeat.
//
// RNG state is stored as a draw count and restored by replaying that
// many draws from the spec seed, which keeps the snapshot format
// independent of math/rand's internal state while remaining exact.
type Snapshot struct {
	// Version is the snapshot format version.
	Version int `json:"version"`
	// Name echoes Spec.Name for sanity checks.
	Name string `json:"name"`
	// Trigger names the exchange-trigger policy the run executed under;
	// resuming under a different policy is rejected.
	Trigger string `json:"trigger"`
	// TriggerData is the serialized controller state of a
	// StatefulTrigger policy (e.g. FeedbackTrigger's rolling outcome
	// window and controlled window length); empty for stateless
	// policies. Restored by the dispatcher so resumed runs make the same
	// trigger decisions as the uninterrupted run.
	TriggerData json.RawMessage `json:"trigger_data,omitempty"`
	// Events is the number of exchange events fired before the snapshot.
	Events int `json:"events"`
	// Elapsed is the virtual run time consumed before the snapshot
	// (capture time minus run start); resumed reports offset their start
	// by it so Makespan and Utilization stay cumulative.
	Elapsed float64 `json:"elapsed"`
	// RNGDraws is the orchestrator RNG position (uniforms consumed).
	RNGDraws int64 `json:"rng_draws"`
	// EngineDraws is the engine RNG position for ReplayableEngine
	// implementations; -1 when the engine does not support replay.
	EngineDraws int64 `json:"engine_draws"`
	// Replicas holds the per-replica state in ID order.
	Replicas []ReplicaState `json:"replicas"`
	// SlotHistory is the slot assignment after each exchange event so
	// far — bounded to the most recent rows when Spec.HistoryTail is set
	// — so a resumed run's report carries the retained history.
	SlotHistory [][]int `json:"slot_history"`
	// SlotRows and SlotFingerprint carry the full-history row count and
	// rolling fingerprint (see Report), so resume equivalence holds even
	// when HistoryTail rotated early rows out of SlotHistory.
	SlotRows        int    `json:"slot_rows,omitempty"`
	SlotFingerprint uint64 `json:"slot_fingerprint,omitempty"`
	// Report counters accumulated before the snapshot.
	Dropped           int     `json:"dropped"`
	Relaunches        int     `json:"relaunches"`
	MDExecCoreSeconds float64 `json:"md_exec_core_seconds"`
	// Analysis is the serialized state of an online-analysis collector
	// (internal/analysis), attached by the OnSnapshot callback so
	// exchange statistics survive checkpoint/restart. Opaque to core.
	Analysis json.RawMessage `json:"analysis,omitempty"`
	// DimValues holds every dimension's window values at capture time,
	// recorded once a ladder re-fit has changed them from the spec's
	// originals; resume restores the refitted grid before replica
	// parameters are rebuilt. Empty for runs that never respaced.
	DimValues [][]float64 `json:"dim_values,omitempty"`
	// Respacings is the applied refit history at capture time, so a
	// resumed run's status surfaces and per-dimension refit budgets
	// continue where the interrupted run stopped.
	Respacings []RespaceRecord `json:"respacings,omitempty"`
}

// ReplicaState is the serializable state of one replica.
type ReplicaState struct {
	ID      int       `json:"id"`
	Slot    int       `json:"slot"`
	Cycle   int       `json:"cycle"`
	Energy  float64   `json:"energy"`
	Synth   []float64 `json:"synth,omitempty"`
	Alive   bool      `json:"alive"`
	Retries int       `json:"retries"`
}

// SnapshotVersion is the current snapshot format version. Version 1
// files may lack the slot fingerprint, the per-dimension
// feedback-controller state and the analysis collector's pair windows;
// they are rejected rather than converted.
const SnapshotVersion = 2

// ReplayableEngine is implemented by engines whose stochastic state can
// be captured as a draw count and restored by replaying it from the
// engine's seed (the virtual cost-model engines). Only they resume: New
// rejects Spec.Resume for any other engine, since a snapshot carries no
// molecular state and such a run would silently restart every replica
// from fresh coordinates.
type ReplayableEngine interface {
	// RNGDraws returns the number of draws consumed so far.
	RNGDraws() int64
	// ReplayRNG resets the engine RNG to its seed and replays n draws.
	ReplayRNG(n int64)
}

// The format-2 layouts: each record's fields in the order Encode writes
// them, matching the struct tags (TestLayoutsMatchTags).
var (
	replicaLayout = jsonx.NewLayout(
		jsonx.Int("id", func(rs *ReplicaState) *int { return &rs.ID }),
		jsonx.Int("slot", func(rs *ReplicaState) *int { return &rs.Slot }),
		jsonx.Int("cycle", func(rs *ReplicaState) *int { return &rs.Cycle }),
		jsonx.Float("energy", func(rs *ReplicaState) *float64 { return &rs.Energy }),
		jsonx.At("synth", func(rs *ReplicaState) *[]float64 { return &rs.Synth }, jsonx.Floats).OmitEmpty(),
		jsonx.Bool("alive", func(rs *ReplicaState) *bool { return &rs.Alive }),
		jsonx.Int("retries", func(rs *ReplicaState) *int { return &rs.Retries }),
	)
	respaceLayout = jsonx.NewLayout(
		jsonx.Float("at", func(rec *RespaceRecord) *float64 { return &rec.At }),
		jsonx.Int("event", func(rec *RespaceRecord) *int { return &rec.Event }),
		jsonx.Int("dim", func(rec *RespaceRecord) *int { return &rec.Dim }),
		jsonx.Int("refit", func(rec *RespaceRecord) *int { return &rec.Refit }),
		jsonx.At("old", func(rec *RespaceRecord) *[]float64 { return &rec.Old }, jsonx.Floats),
		jsonx.At("new", func(rec *RespaceRecord) *[]float64 { return &rec.New }, jsonx.Floats),
	)
	snapshotLayout = jsonx.NewLayout(
		jsonx.Int("version", func(sn *Snapshot) *int { return &sn.Version }),
		jsonx.String("name", func(sn *Snapshot) *string { return &sn.Name }),
		jsonx.String("trigger", func(sn *Snapshot) *string { return &sn.Trigger }),
		jsonx.At("trigger_data", func(sn *Snapshot) *json.RawMessage { return &sn.TriggerData }, jsonx.Blob).OmitEmpty(),
		jsonx.Int("events", func(sn *Snapshot) *int { return &sn.Events }),
		jsonx.Float("elapsed", func(sn *Snapshot) *float64 { return &sn.Elapsed }),
		jsonx.Int64("rng_draws", func(sn *Snapshot) *int64 { return &sn.RNGDraws }),
		jsonx.Int64("engine_draws", func(sn *Snapshot) *int64 { return &sn.EngineDraws }),
		jsonx.At("replicas", func(sn *Snapshot) *[]ReplicaState { return &sn.Replicas },
			jsonx.Array(jsonx.Object(replicaLayout), true)),
		jsonx.At("slot_history", func(sn *Snapshot) *[][]int { return &sn.SlotHistory }, jsonx.Array(jsonx.Ints, true)),
		jsonx.Int("slot_rows", func(sn *Snapshot) *int { return &sn.SlotRows }).OmitEmpty(),
		jsonx.Uint64("slot_fingerprint", func(sn *Snapshot) *uint64 { return &sn.SlotFingerprint }).OmitEmpty(),
		jsonx.Int("dropped", func(sn *Snapshot) *int { return &sn.Dropped }),
		jsonx.Int("relaunches", func(sn *Snapshot) *int { return &sn.Relaunches }),
		jsonx.Float("md_exec_core_seconds", func(sn *Snapshot) *float64 { return &sn.MDExecCoreSeconds }),
		jsonx.At("analysis", func(sn *Snapshot) *json.RawMessage { return &sn.Analysis }, jsonx.Blob).OmitEmpty(),
		jsonx.At("dim_values", func(sn *Snapshot) *[][]float64 { return &sn.DimValues },
			jsonx.Array(jsonx.Floats, false)).OmitEmpty(),
		jsonx.At("respacings", func(sn *Snapshot) *[]RespaceRecord { return &sn.Respacings },
			jsonx.Array(jsonx.Object(respaceLayout), true)).OmitEmpty(),
	)
)

// Encode serializes the snapshot as format-2 JSON: compact, with one
// line per replica and per slot-history row. It fails on a NaN or
// infinite float (energies, synthetic coordinates, ladder values) and
// on a TriggerData or Analysis blob that is not valid JSON; the blobs
// are embedded as they are. Output is a pure function of the value, and
// encoding/json reads it back to the same value.
func (sn *Snapshot) Encode() ([]byte, error) {
	size := 1024 + len(sn.TriggerData) + len(sn.Analysis) + (128+6*len(sn.SlotHistory))*len(sn.Replicas)
	buf, err := snapshotLayout.Encode(make([]byte, 0, size), sn)
	if err != nil {
		return nil, fmt.Errorf("core: encoding snapshot: %v", err)
	}
	return append(buf, '\n'), nil
}

// DecodeSnapshot parses a snapshot produced by Encode, by this build or
// by one that wrote format 2 through encoding/json. It fails on
// malformed or truncated input, bytes after the value, a fraction,
// exponent or overflow in an integer field, a key repeated within one
// object (encoding/json kept the last), and on any format version but 2,
// naming both. Unknown keys are skipped. Slot-history rows and the
// float vectors are cut from a few shared arrays, each row without
// spare capacity.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	sn := new(Snapshot)
	if _, err := snapshotLayout.Decode(data, sn); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %v", err)
	}
	if sn.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot has format version %d, this build reads only version %d: the run must be restarted",
			sn.Version, SnapshotVersion)
	}
	return sn, nil
}

// captureSnapshot builds a checkpoint of the current state; called by
// the dispatcher right after an exchange event completes. It fails when
// a stateful trigger cannot serialize its controller state: writing a
// checkpoint without it would resume with a fresh controller and
// silently break resume determinism.
func (d *dispatcher) captureSnapshot() (*Snapshot, error) {
	s := d.s
	sn := &Snapshot{
		Version:           SnapshotVersion,
		Name:              s.spec.Name,
		Trigger:           d.tr.Name(),
		Events:            d.event,
		Elapsed:           s.rt.Now() - s.report.Start,
		RNGDraws:          s.rngDraws,
		EngineDraws:       -1,
		Replicas:          make([]ReplicaState, len(s.replicas)),
		SlotHistory:       cloneRows(s.report.SlotHistory),
		SlotRows:          s.report.SlotRows,
		SlotFingerprint:   s.report.SlotFingerprint,
		Dropped:           s.report.Dropped,
		Relaunches:        s.report.Relaunches,
		MDExecCoreSeconds: s.report.MDExecCoreSeconds,
	}
	if re, ok := s.engine.(ReplayableEngine); ok {
		sn.EngineDraws = re.RNGDraws()
	}
	if d.stateful != nil {
		data, err := d.stateful.EncodeState()
		if err != nil {
			return nil, fmt.Errorf("core: encoding %q trigger state for snapshot: %v", d.tr.Name(), err)
		}
		sn.TriggerData = data
	}
	// A capture owns its arrays: the replicas' coordinates and the history
	// rows are each copied into one fresh backing array.
	nsynth := 0
	for _, r := range s.replicas {
		nsynth += len(r.Synth)
	}
	free := make([]float64, nsynth)
	for i, r := range s.replicas {
		sn.Replicas[i] = ReplicaState{
			ID:      r.ID,
			Slot:    r.Slot,
			Cycle:   r.Cycle,
			Energy:  r.Energy,
			Synth:   carve(&free, r.Synth),
			Alive:   r.Alive,
			Retries: r.Retries,
		}
	}
	if ladders, hist := s.Respacing(); len(hist) > 0 {
		sn.Respacings = hist
		sn.DimValues = ladders
	}
	return sn, nil
}

// maybeSnapshot captures and delivers a checkpoint when the spec asks
// for one at this exchange-event count.
func (d *dispatcher) maybeSnapshot() error {
	spec := d.s.spec
	if spec.SnapshotEvery <= 0 || spec.OnSnapshot == nil || d.event%spec.SnapshotEvery != 0 {
		return nil
	}
	sn, err := d.captureSnapshot()
	if err != nil {
		return err
	}
	spec.OnSnapshot(sn)
	d.s.recordCheckpoint(d.event, "")
	return nil
}

// applySnapshot restores replica and RNG state from a checkpoint; called
// from New after the fresh replica set is built.
func (s *Simulation) applySnapshot(sn *Snapshot) error {
	if sn.Name != s.spec.Name {
		return fmt.Errorf("core: snapshot belongs to simulation %q, resuming %q",
			sn.Name, s.spec.Name)
	}
	if len(sn.Replicas) != len(s.replicas) {
		return fmt.Errorf("core: snapshot has %d replicas, spec %q has %d",
			len(sn.Replicas), s.spec.Name, len(s.replicas))
	}
	if sn.Events < 0 {
		// newDispatcher resumes the dimension cycle at Events.
		return fmt.Errorf("core: snapshot of %q has %d exchange events", sn.Name, sn.Events)
	}
	if sn.SlotFingerprint == 0 {
		// Even an event-0 snapshot carries the FNV offset basis.
		return fmt.Errorf("core: snapshot of %q carries no slot fingerprint", sn.Name)
	}
	// Restore a respaced grid before replica parameters are cloned from
	// slotParams below: the snapshot's values replace the spec's
	// originals, exactly as applyRespace left them.
	if len(sn.DimValues) > 0 {
		if len(sn.DimValues) != len(s.spec.Dims) {
			return fmt.Errorf("core: snapshot carries %d dimension grids, spec %q has %d",
				len(sn.DimValues), s.spec.Name, len(s.spec.Dims))
		}
		for d, vals := range sn.DimValues {
			if len(vals) != len(s.spec.Dims[d].Values) {
				return fmt.Errorf("core: snapshot dimension %d has %d windows, spec %q has %d",
					d, len(vals), s.spec.Name, len(s.spec.Dims[d].Values))
			}
			s.spec.Dims[d].Values = append([]float64(nil), vals...)
		}
		s.fillSlotParams()
	}
	for i, rec := range sn.Respacings {
		if rec.Dim < 0 || rec.Dim >= len(s.spec.Dims) {
			return fmt.Errorf("core: snapshot refit %d names dimension %d, spec %q has %d",
				i, rec.Dim, s.spec.Name, len(s.spec.Dims))
		}
	}
	s.respacings = append([]RespaceRecord(nil), sn.Respacings...)
	seenSlot := make([]bool, len(s.replicas))
	seenID := make([]bool, len(s.replicas))
	for _, rs := range sn.Replicas {
		if rs.ID < 0 || rs.ID >= len(s.replicas) || seenID[rs.ID] {
			return fmt.Errorf("core: snapshot replica ID %d out of range or duplicated", rs.ID)
		}
		seenID[rs.ID] = true
		if rs.Slot < 0 || rs.Slot >= len(s.replicas) || seenSlot[rs.Slot] {
			return fmt.Errorf("core: snapshot slots are not a permutation (slot %d)", rs.Slot)
		}
		seenSlot[rs.Slot] = true
		r := s.replicas[rs.ID]
		if len(rs.Synth) != len(r.Synth) {
			return fmt.Errorf("core: snapshot replica %d has %d coordinates, engine %q carves %d",
				rs.ID, len(rs.Synth), s.engine.Name(), len(r.Synth))
		}
		copy(r.Synth, rs.Synth) // into the array the engine carved
		r.Slot = rs.Slot
		r.Cycle = rs.Cycle
		r.Energy = rs.Energy
		r.Alive = rs.Alive
		r.Retries = rs.Retries
		s.takeSlotParams(r)
		s.replicaAt[r.Slot] = r.ID
	}
	// Replay the orchestrator RNG to its snapshot position.
	s.rng = rand.New(rand.NewSource(s.spec.Seed))
	for i := int64(0); i < sn.RNGDraws; i++ {
		s.rng.Float64()
	}
	s.rngDraws = sn.RNGDraws
	if sn.EngineDraws >= 0 {
		s.engine.(ReplayableEngine).ReplayRNG(sn.EngineDraws)
	}
	s.resumeEvents = sn.Events
	s.resumeElapsed = sn.Elapsed
	s.resumed = true
	s.report.Dropped = sn.Dropped
	s.report.Relaunches = sn.Relaunches
	s.report.MDExecCoreSeconds = sn.MDExecCoreSeconds
	s.report.ExchangeEvents = sn.Events
	// A resumed history longer than the tail (snapshot taken without one,
	// or with a larger one) is trimmed so the bound holds from the start.
	rows := sn.SlotHistory
	if tail := s.spec.HistoryTail; tail > 0 && len(rows) > tail {
		rows = rows[len(rows)-tail:]
	}
	s.report.SlotHistory = cloneRows(rows)
	s.report.SlotRows = sn.SlotRows
	s.report.SlotFingerprint = sn.SlotFingerprint
	return nil
}
