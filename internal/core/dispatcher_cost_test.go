package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/exchange"
	"repro/internal/md"
	"repro/internal/task"
	"repro/internal/trace"
)

// This file measures the dispatcher on its own: a zero-latency runtime
// below it, a table-lookup engine beside it, so a run costs what the
// core loop itself does. The expected values were captured from the
// single-function Simulation.dispatch that preceded the dispatcher type
// and pin, per scenario, the slot trajectory, the fault and cancel
// counters, every float of every CycleRecord and the allocations the
// loop makes per completed MD segment.

// tickRuntime is a zero-latency task.Runtime. Every submitted task is
// already complete; AwaitNext advances the clock by one fixed tick and
// delivers the watched tasks in submission order, at most burst of them
// per call (0 delivers all), so non-aligned policies see ready subsets.
// Failures are injected by submission ordinal or by replica, and a
// context can be cancelled at a chosen AwaitNext call. With poison set,
// each AwaitNext first overwrites the results of the handles the
// previous one delivered — the contract lets a runtime reuse them — so a
// dispatcher that read one late would see replica -1, NaN times and a
// failure, which drops the replica and moves the pinned outcome.
type tickRuntime struct {
	now, tick float64
	cores     int
	burst     int
	poison    bool
	watched   []task.Handle
	out       []task.Handle
	slab      []tickHandle

	submits   int
	failEvery int // every failEvery-th watched submission fails
	lostEvery int // every lostEvery-th loses its resource instead
	doomed    int // replica whose every MD segment fails (-1: none)

	awaits   int
	cancelAt int // AwaitNext call at which cancel runs (0: never)
	cancel   context.CancelFunc
}

type tickHandle struct{ res task.Result }

func (h *tickHandle) Done() bool          { return true }
func (h *tickHandle) Result() task.Result { return h.res }

var (
	errTickFault = errors.New("tick runtime: injected fault")
	errTickLost  = fmt.Errorf("tick runtime: %w", task.ErrResourceLost)
	errPoisoned  = errors.New("tick runtime: result read after the next AwaitNext")
	poisonSpec   = task.Spec{Name: "poisoned", ReplicaID: -1}
)

func newTickRuntime(cores, burst int) *tickRuntime {
	return &tickRuntime{tick: 1, cores: cores, burst: burst, doomed: -1}
}

func (r *tickRuntime) Now() float64 { return r.now }
func (r *tickRuntime) Cores() int   { return r.cores }

// handle carves one handle out of a slab, so the runtime itself adds
// almost nothing to the allocation count under test.
func (r *tickRuntime) handle(s *task.Spec) *tickHandle {
	if len(r.slab) == 0 {
		r.slab = make([]tickHandle, 1024)
	}
	h := &r.slab[0]
	r.slab = r.slab[1:]
	h.res = task.Result{Spec: s, Submitted: r.now}
	return h
}

func (r *tickRuntime) Submit(s *task.Spec) task.Handle { return r.handle(s) }

func (r *tickRuntime) SubmitWatched(s *task.Spec) task.Handle {
	h := r.handle(s)
	r.submits++
	switch {
	case s.ReplicaID == r.doomed:
		h.res.Err = errTickFault
	case r.lostEvery > 0 && r.submits%r.lostEvery == 0:
		h.res.Err = errTickLost
	case r.failEvery > 0 && r.submits%r.failEvery == 0:
		h.res.Err = errTickFault
	}
	r.watched = append(r.watched, h)
	return h
}

func (r *tickRuntime) AwaitNext(deadline float64) []task.Handle {
	if r.poison {
		nan := math.NaN()
		for _, h := range r.out {
			h.(*tickHandle).res = task.Result{Spec: &poisonSpec, Submitted: nan, Finished: nan,
				StageIn: nan, CoreWait: nan, Launch: nan, Exec: nan, StageOut: nan, Err: errPoisoned}
		}
	}
	r.awaits++
	if r.awaits == r.cancelAt {
		r.cancel()
	}
	if len(r.watched) == 0 || r.now+r.tick > deadline {
		if math.IsInf(deadline, 1) {
			panic("tick runtime: AwaitNext(+Inf) with no watched task outstanding")
		}
		r.SleepUntil(deadline)
		return nil
	}
	r.now += r.tick
	k := len(r.watched)
	if r.burst > 0 && k > r.burst {
		k = r.burst
	}
	r.out = append(r.out[:0], r.watched[:k]...)
	r.watched = r.watched[:copy(r.watched, r.watched[k:])]
	for _, h := range r.out {
		res := &h.(*tickHandle).res
		res.Finished, res.Exec = r.now, r.tick
	}
	return r.out
}

func (r *tickRuntime) Await(h task.Handle) task.Result {
	res := &h.(*tickHandle).res
	r.now += res.Spec.Duration
	res.Finished, res.Exec = r.now, res.Spec.Duration
	return *res
}

func (r *tickRuntime) AwaitAll(hs []task.Handle) []task.Result {
	out := make([]task.Result, len(hs))
	for i, h := range hs {
		out[i] = r.Await(h)
	}
	return out
}

func (r *tickRuntime) Overhead(d float64) { r.now += d }

func (r *tickRuntime) SleepUntil(t float64) {
	if t > r.now {
		r.now = t
	}
}

var _ task.Runtime = (*tickRuntime)(nil)

// costEngine is stubEngine with allocation-free task specs, a non-zero
// preparation overhead and an exchange task, so record walls carry
// non-trivial float bits, and with energies that give the Metropolis
// sweep a mixed accept/reject stream.
type costEngine struct {
	stubEngine
	specs []task.Spec
	ex    task.Spec
}

func newCostEngine(n int) *costEngine {
	e := &costEngine{specs: make([]task.Spec, n)}
	e.energyOf = func(r *Replica) float64 {
		return -20 * float64((r.ID*131+r.Cycle*31+r.Slot*17)%251)
	}
	e.crossOf = func(r *Replica, under md.Params) float64 {
		x := r.Energy
		for _, rs := range under.Restraints {
			x += 3 * math.Abs(math.Sin(rs.Center*float64(1+r.ID%5)))
		}
		return x
	}
	return e
}

func (e *costEngine) MDTask(r *Replica, s *Spec, dim int) *task.Spec {
	sp := &e.specs[r.ID]
	*sp = task.Spec{Name: "md", Kind: task.MD, ReplicaID: r.ID,
		Cores: s.CoresPerReplica, CanFail: true}
	return sp
}

func (e *costEngine) ExchangeTask(dim, n int, s *Spec) *task.Spec {
	e.ex = task.Spec{Name: "ex", Kind: task.Exchange, Cores: 1, Duration: 0.25}
	return &e.ex
}

func (e *costEngine) PrepOverhead(nTasks, ndims int) float64 {
	return 0.0007*float64(nTasks) + 0.01*float64(ndims)
}

// costEngine draws nothing — its energies are functions of the replica —
// so it resumes with nothing to replay.
func (e *costEngine) RNGDraws() int64 { return 0 }
func (e *costEngine) ReplayRNG(int64) {}

// costScenario is one pinned dispatcher run: 1024 replicas, 8 cycles.
type costScenario struct {
	name    string
	twoD    bool // 32 T x 32 U instead of 1024 T
	trigger func() Trigger
	burst   int
	fault   FaultPolicy
	// failEvery/lostEvery/doomed configure the runtime's fault injection.
	failEvery, lostEvery int
	doomed               bool
	bus, tracer          bool
	snapshotEvery        int
	// cancelAt cancels the context at that AwaitNext call; the run is
	// then resumed from the delivered snapshot and both legs are pinned.
	cancelAt int
	// poison sets the runtime's poison mode; the outcome must not move.
	poison bool
}

func (sc costScenario) spec() *Spec {
	s := &Spec{
		Name:            "cost-" + sc.name,
		Dims:            []Dimension{{Type: exchange.Temperature, Values: GeometricTemperatures(273, 373, 1024)}},
		Trigger:         sc.trigger(),
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          8,
		Seed:            15,
		FaultPolicy:     sc.fault,
		SnapshotEvery:   sc.snapshotEvery,
	}
	if sc.twoD {
		s.Dims = []Dimension{
			{Type: exchange.Temperature, Values: GeometricTemperatures(273, 373, 32)},
			{Type: exchange.Umbrella, Values: UniformWindows(32), Torsion: "phi", K: UmbrellaK002},
		}
	}
	if sc.bus {
		s.Bus = NewBus()
	}
	if sc.tracer {
		s.Tracer = trace.New(0)
	}
	return s
}

func (sc costScenario) runtime() *tickRuntime {
	rt := newTickRuntime(1024, sc.burst)
	rt.failEvery, rt.lostEvery, rt.poison = sc.failEvery, sc.lostEvery, sc.poison
	if sc.doomed {
		rt.doomed = 5
	}
	return rt
}

// costOutcome is everything a scenario pins.
type costOutcome struct {
	Fingerprint uint64
	Events      int
	Relaunches  int
	Dropped     int
	Cancelled   int
	Completions int
	// Records hashes Cycle, Dim, Attempted, Accepted, MD.Tasks,
	// MD.Failures and the bits of At, MD.Wall, EX.Wall, Wall and
	// RepExOverhead of every record, in order.
	Records uint64
	// End is the bits of the runtime clock when the run returned.
	End uint64
	// Snapshots, Published and Spans count OnSnapshot deliveries, bus
	// events and recorder spans.
	Snapshots int
	Published uint64
	Spans     uint64
}

func hashRecords(recs []CycleRecord) uint64 {
	h := fnv64Offset
	for i := range recs {
		rec := &recs[i]
		for _, v := range []int{rec.Cycle, rec.Dim, rec.Attempted, rec.Accepted, rec.MD.Tasks, rec.MD.Failures} {
			h = fnvInt(h, v)
		}
		for _, f := range []float64{rec.At, rec.MD.Wall, rec.EX.Wall, rec.Wall, rec.RepExOverhead} {
			b := math.Float64bits(f)
			for s := 0; s < 64; s += 8 {
				h = fnvByte(h, byte(b>>s))
			}
		}
	}
	return h
}

// runCost runs one leg of a scenario and returns its outcome, the last
// snapshot delivered and the run's error.
func runCost(t testing.TB, sc costScenario, resume *Snapshot, cancelAt int) (costOutcome, *Snapshot, error) {
	spec := sc.spec()
	spec.Resume = resume
	var last *Snapshot
	snaps := 0
	spec.OnSnapshot = func(sn *Snapshot) { last, snaps = sn, snaps+1 }
	rt := sc.runtime()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.cancelAt, rt.cancel = cancelAt, cancel
	s, err := New(spec, newCostEngine(1024), rt)
	if err != nil {
		t.Fatalf("%s: New: %v", sc.name, err)
	}
	rep, err := s.RunContext(ctx)
	out := costOutcome{
		Fingerprint: rep.SlotFingerprint,
		Events:      rep.ExchangeEvents,
		Relaunches:  rep.Relaunches,
		Dropped:     rep.Dropped,
		Cancelled:   rep.CancelledUnits,
		Records:     hashRecords(rep.Records),
		End:         math.Float64bits(rep.End),
		Snapshots:   snaps,
	}
	for i := range rep.Records {
		out.Completions += rep.Records[i].MD.Tasks
	}
	if spec.Bus != nil {
		out.Published = spec.Bus.Published()
	}
	if spec.Tracer != nil {
		out.Spans = spec.Tracer.Recorded()
	}
	return out, last, err
}

var costScenarios = []costScenario{
	{name: "barrier", trigger: func() Trigger { return NewBarrierTrigger() }},
	{name: "barrier-tu-relaunch", twoD: true, trigger: func() Trigger { return NewBarrierTrigger() },
		burst: 300, fault: FaultRelaunch, failEvery: 97, lostEvery: 389, doomed: true, tracer: true},
	{name: "window-tu", twoD: true, trigger: func() Trigger { return NewWindowTrigger(2.5, 0) },
		burst: 200, bus: true, snapshotEvery: 4},
	{name: "count-drop", trigger: func() Trigger { return NewCountTrigger(300) },
		burst: 256, failEvery: 501},
	{name: "count-cancel", trigger: func() Trigger { return NewCountTrigger(300) },
		burst: 256, cancelAt: 10},
}

// costWant holds the parent dispatch's outcomes: one leg per scenario,
// two (cancelled, resumed) for the cancel scenario.
var costWant = map[string][]costOutcome{
	"barrier": {{Fingerprint: 0x5d0744ef9b6b89d3, Events: 8, Completions: 8192,
		Records: 0xbe148888700164a4, End: 0x402fccccccccccce}},
	"barrier-tu-relaunch": {{Fingerprint: 0x3f8e71b8fcabe519, Events: 16, Relaunches: 215, Dropped: 1,
		Completions: 16584, Records: 0x8dc86b0c198c0ae5, End: 0x40589d3a92a30552, Spans: 0x40e9}},
	"window-tu": {{Fingerprint: 0xd18714dfa780ad60, Events: 21, Completions: 8192,
		Records: 0x269bce14e6412376, End: 0x404f92a305532615, Snapshots: 5, Published: 0x2015}},
	"count-drop": {{Fingerprint: 0xb026600dd3dedf69, Events: 16, Dropped: 16, Completions: 8136,
		Records: 0xfa4c283c878329c9, End: 0x40450219652bd3c2}},
	"count-cancel": {
		{Fingerprint: 0xd54b31075481c640, Events: 5, Cancelled: 512, Completions: 2560,
			Records: 0xa7743716eacb69ed, End: 0x402f01ff2e48e8a6, Snapshots: 1},
		{Fingerprint: 0x5f67375c315f8ad7, Events: 16, Completions: 5632,
			Records: 0xd713bdb18b0269ca, End: 0x403ce8fc504816f0},
	},
}

// TestDispatcherPinnedAgainstParent runs every scenario twice, the second
// time on a poisoning runtime: the dispatcher reads no handle after the
// next AwaitNext.
func TestDispatcherPinnedAgainstParent(t *testing.T) {
	for _, base := range costScenarios {
		for _, poison := range []bool{false, true} {
			sc, leg := base, base.name
			if sc.poison = poison; poison {
				leg += "/poisoned"
			}
			t.Run(leg, func(t *testing.T) {
				var got []costOutcome
				out, snap, err := runCost(t, sc, nil, sc.cancelAt)
				got = append(got, out)
				if sc.cancelAt > 0 {
					if !errors.Is(err, ErrRunCancelled) {
						t.Fatalf("first leg: err = %v, want a cancellation", err)
					}
					if snap == nil {
						t.Fatal("first leg delivered no snapshot")
					}
					data, err := snap.Encode()
					if err != nil {
						t.Fatal(err)
					}
					resume, err := DecodeSnapshot(data)
					if err != nil {
						t.Fatal(err)
					}
					out, _, err = runCost(t, sc, resume, 0)
					if err != nil {
						t.Fatalf("resumed leg: %v", err)
					}
					got = append(got, out)
				} else if err != nil {
					t.Fatal(err)
				}
				want := costWant[sc.name]
				if len(want) != len(got) {
					t.Fatalf("no pinned outcome; got:\n%#v", got)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("leg %d:\n got %#v\nwant %#v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// costAllocCeil bounds the dispatch's allocations per completed MD
// segment inside Run (simulation construction excluded), per scenario:
// the readings (0.0038, 0.0027, 0.0094, 0.0042), plus about 5 %; the
// 16-event barrier-tu-relaunch run carves its rows in two chunks of
// eight and reads 45 objects, 47 under the race detector. They read
// 0.0050, 0.0037, 0.0177 and 0.0063 while every exchange event
// allocated its slot row and its pair outcomes.
// window-tu has a bus: an MDEvent boxed on its way to it would add one
// allocation a completion, and growing each event's pair outcomes by
// append instead of sizing them once read 0.0503. barrier-tu-relaunch
// swaps restraints: a clone per swapped replica would add about 0.15.
var costAllocCeil = map[string]float64{
	"barrier":             0.0040,
	"barrier-tu-relaunch": 0.0029,
	"window-tu":           0.0099,
	"count-drop":          0.0045,
}

func TestDispatcherAllocsPerCompletion(t *testing.T) {
	const runs = 3
	for _, sc := range costScenarios {
		if sc.cancelAt > 0 {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			ref, _, err := runCost(t, sc, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun calls its function runs+1 times and a
			// Simulation runs once, so build them all up front.
			sims := make([]*Simulation, runs+1)
			for i := range sims {
				spec := sc.spec()
				spec.OnSnapshot = func(*Snapshot) {}
				if sims[i], err = New(spec, newCostEngine(1024), sc.runtime()); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := sims[next].Run(); err != nil {
					t.Error(err)
				}
				next++
			})
			per := allocs / float64(ref.Completions)
			ceil, ok := costAllocCeil[sc.name]
			if !ok || per > ceil {
				t.Errorf("%.4f allocs per completion (%v over %d completions), ceiling %v",
					per, allocs, ref.Completions, ceil)
			}
		})
	}
}

// TestHistoryTailBoundsRowStorage pins that a bounded history's rows
// live in chunks of at most its tail: at every event of a window run of
// many events under a tail of three, the rows slab's chunk has room for
// fewer than three more rows and the report's header for at most six,
// so what the run holds of its history stays within twice its tail.
func TestHistoryTailBoundsRowStorage(t *testing.T) {
	const tail = 3
	sc := costScenarios[2] // window-tu
	spec := sc.spec()
	spec.HistoryTail = tail
	spec.SnapshotEvery = 1
	var s *Simulation
	var free, header int
	spec.OnSnapshot = func(*Snapshot) {
		free = max(free, s.rows.Room())
		header = max(header, cap(s.report.SlotHistory))
	}
	s, err := New(spec, newCostEngine(1024), sc.runtime())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlotRows < 4*tail {
		t.Fatalf("%d events: too few to rotate the tail", rep.SlotRows)
	}
	if n := len(s.replicas); free >= tail*n || header > 2*tail {
		t.Errorf("tail %d: the rows slab had room for %d more slots (a row is %d) and the header for %d rows",
			tail, free, n, header)
	}
}

// TestCancelledRunRetainsFewRows bounds what a long aligned run keeps of
// its slot history when it is cancelled a few events in, as a served run
// deleted soon after its launch is: the live heap a 1 024-replica
// barrier run of 20 000 cycles holds, simulation and partial report,
// once it was cancelled at its fourth round, against a run of the same
// shape whose four cycles all ran. Carving the rows for every event the
// spec leaves at the first one kept an 8 MB chunk and a 480 KB header.
func TestCancelledRunRetainsFewRows(t *testing.T) {
	held := func(cycles, cancelAt int) (float64, int) {
		sc := costScenarios[0] // barrier
		spec := sc.spec()
		spec.Cycles = cycles
		rt := sc.runtime()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rt.cancelAt, rt.cancel = cancelAt, cancel
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		s, err := New(spec, newCostEngine(1024), rt)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunContext(ctx)
		if cancelAt > 0 && !errors.Is(err, ErrRunCancelled) || cancelAt == 0 && err != nil {
			t.Fatalf("%d cycles cancelled at await %d: %v", cycles, cancelAt, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
		return float64(ms.HeapAlloc) - float64(base), rep.SlotRows
	}
	cancelled, rows := held(20000, 4)
	finished, want := held(rows, 0)
	if rows != want {
		t.Fatalf("the cancelled run recorded %d rows, the finished one %d", rows, want)
	}
	t.Logf("a %d-row barrier run keeps %.0f KB cancelled, %.0f KB finished", rows, cancelled/1024, finished/1024)
	if limit := finished + 64<<10; cancelled > limit {
		t.Errorf("a barrier run cancelled after %d rows keeps %.0f KB, want at most %.0f KB", rows, cancelled/1024, limit/1024)
	}
}
