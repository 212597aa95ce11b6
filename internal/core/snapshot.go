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

// Encode serializes the snapshot as format-2 JSON: compact, with one
// line per replica and per slot-history row. It fails on a NaN or
// infinite float (energies, synthetic coordinates, ladder values) and
// on a TriggerData or Analysis blob that is not valid JSON; the blobs
// are embedded as they are. Output is a pure function of the value, and
// encoding/json reads it back to the same value.
func (sn *Snapshot) Encode() ([]byte, error) {
	size := 1024 + len(sn.TriggerData) + len(sn.Analysis) + (128+6*len(sn.SlotHistory))*len(sn.Replicas)
	w := &jsonx.Writer{Buf: make([]byte, 0, size)}
	w.Raw("{")
	w.Key("version").Int(sn.Version)
	w.Key("name").String(sn.Name)
	w.Key("trigger").String(sn.Trigger)
	if len(sn.TriggerData) > 0 {
		w.Key("trigger_data").Blob(sn.TriggerData)
	}
	w.Key("events").Int(sn.Events)
	w.Key("elapsed").Float(sn.Elapsed)
	w.Key("rng_draws").Int64(sn.RNGDraws)
	w.Key("engine_draws").Int64(sn.EngineDraws)
	w.Key("replicas")
	jsonx.WriteArray(w, sn.Replicas, true, writeReplica)
	w.Key("slot_history")
	jsonx.WriteArray(w, sn.SlotHistory, true, (*jsonx.Writer).Ints)
	if sn.SlotRows != 0 {
		w.Key("slot_rows").Int(sn.SlotRows)
	}
	if sn.SlotFingerprint != 0 {
		w.Key("slot_fingerprint").Uint64(sn.SlotFingerprint)
	}
	w.Key("dropped").Int(sn.Dropped)
	w.Key("relaunches").Int(sn.Relaunches)
	w.Key("md_exec_core_seconds").Float(sn.MDExecCoreSeconds)
	if len(sn.Analysis) > 0 {
		w.Key("analysis").Blob(sn.Analysis)
	}
	if len(sn.DimValues) > 0 {
		w.Key("dim_values")
		jsonx.WriteArray(w, sn.DimValues, false, (*jsonx.Writer).Floats)
	}
	if len(sn.Respacings) > 0 {
		w.Key("respacings")
		jsonx.WriteArray(w, sn.Respacings, true, func(w *jsonx.Writer, rec RespaceRecord) {
			w.Raw("{")
			w.Key("at").Float(rec.At)
			w.Key("event").Int(rec.Event)
			w.Key("dim").Int(rec.Dim)
			w.Key("refit").Int(rec.Refit)
			w.Key("old").Floats(rec.Old)
			w.Key("new").Floats(rec.New)
			w.Raw("}")
		})
	}
	w.Raw("}\n")
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("core: encoding snapshot: %v", err)
	}
	return w.Buf, nil
}

func writeReplica(w *jsonx.Writer, rs ReplicaState) {
	w.Raw("{")
	w.Key("id").Int(rs.ID)
	w.Key("slot").Int(rs.Slot)
	w.Key("cycle").Int(rs.Cycle)
	w.Key("energy").Float(rs.Energy)
	if len(rs.Synth) > 0 {
		w.Key("synth").Floats(rs.Synth)
	}
	w.Key("alive").Bool(rs.Alive)
	w.Key("retries").Int(rs.Retries)
	w.Raw("}")
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
	var (
		ints   []int
		floats []float64
		rows   [][]int
		reps   []ReplicaState
		grids  [][]float64
		recs   []RespaceRecord
	)
	r := jsonx.NewReader(data)
	for k, ok := r.FirstKey(); ok; k, ok = r.NextKey() {
		switch string(k) {
		case "version":
			sn.Version = r.Int()
		case "name":
			sn.Name = r.String()
		case "trigger":
			sn.Trigger = r.String()
		case "trigger_data":
			sn.TriggerData = append(sn.TriggerData, r.Raw()...)
		case "events":
			sn.Events = r.Int()
		case "elapsed":
			sn.Elapsed = r.Float()
		case "rng_draws":
			sn.RNGDraws = r.Int64()
		case "engine_draws":
			sn.EngineDraws = r.Int64()
		case "replicas":
			sn.Replicas = jsonx.ReadArray(r, &reps, func(r *jsonx.Reader) (rs ReplicaState) {
				for k, ok := r.FirstKey(); ok; k, ok = r.NextKey() {
					switch string(k) {
					case "id":
						rs.ID = r.Int()
					case "slot":
						rs.Slot = r.Int()
					case "cycle":
						rs.Cycle = r.Int()
					case "energy":
						rs.Energy = r.Float()
					case "synth":
						rs.Synth = r.Floats(&floats)
					case "alive":
						rs.Alive = r.Bool()
					case "retries":
						rs.Retries = r.Int()
					default:
						r.Skip()
					}
				}
				return rs
			})
		case "slot_history":
			sn.SlotHistory = jsonx.ReadArray(r, &rows, func(r *jsonx.Reader) []int { return r.Ints(&ints) })
		case "slot_rows":
			sn.SlotRows = r.Int()
		case "slot_fingerprint":
			sn.SlotFingerprint = r.Uint64()
		case "dropped":
			sn.Dropped = r.Int()
		case "relaunches":
			sn.Relaunches = r.Int()
		case "md_exec_core_seconds":
			sn.MDExecCoreSeconds = r.Float()
		case "analysis":
			sn.Analysis = append(sn.Analysis, r.Raw()...)
		case "dim_values":
			sn.DimValues = jsonx.ReadArray(r, &grids, func(r *jsonx.Reader) []float64 { return r.Floats(&floats) })
		case "respacings":
			sn.Respacings = jsonx.ReadArray(r, &recs, func(r *jsonx.Reader) (rec RespaceRecord) {
				for k, ok := r.FirstKey(); ok; k, ok = r.NextKey() {
					switch string(k) {
					case "at":
						rec.At = r.Float()
					case "event":
						rec.Event = r.Int()
					case "dim":
						rec.Dim = r.Int()
					case "refit":
						rec.Refit = r.Int()
					case "old":
						rec.Old = r.Floats(&floats)
					case "new":
						rec.New = r.Floats(&floats)
					default:
						r.Skip()
					}
				}
				return rec
			})
		default:
			r.Skip()
		}
	}
	if err := r.End(); err != nil {
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
		r.Slot = rs.Slot
		r.Cycle = rs.Cycle
		r.Energy = rs.Energy
		r.Alive = rs.Alive
		r.Retries = rs.Retries
		switch {
		case len(rs.Synth) == len(r.Synth):
			copy(r.Synth, rs.Synth) // into the array the engine carved
		case len(rs.Synth) > 0:
			r.Synth = append([]float64(nil), rs.Synth...)
		}
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
