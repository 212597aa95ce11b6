package serve

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"

	"repro/internal/analysis"
)

// processView is the Go runtime block of a scrape: the process a server
// runs in, read from runtime/metrics once per scrape.
type processView struct {
	goroutines, gomaxprocs uint64
	heapLive, heapGoal     uint64
	heapAllocs, gcCycles   uint64
	gcCPU                  float64
	pauses                 analysis.Histogram
	// goVersion, path and version label the build-info gauge: the
	// toolchain, the main module and its version.
	goVersion, path, version string
}

// runtimeMetrics are the samples readProcess takes, in the order it reads
// them.
var runtimeMetrics = [...]string{
	"/sched/goroutines:goroutines",
	"/sched/gomaxprocs:threads",
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

// gcPauseBounds are the bucket upper bounds, in seconds, the runtime's
// fine-grained GC pause histogram is folded into.
var gcPauseBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}

// mainModule is the main module's path and version, read once.
var mainModule = sync.OnceValues(func() (path, version string) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.Main.Path, bi.Main.Version
	}
	return "", ""
})

// readProcess samples the runtime. A metric this toolchain does not
// provide reads zero.
func readProcess() *processView {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i := range s {
		s[i].Name = runtimeMetrics[i]
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	p := &processView{
		goroutines: u(0), gomaxprocs: u(1),
		heapLive: u(2), heapGoal: u(3),
		heapAllocs: u(4), gcCycles: u(5),
		pauses:    analysis.NewHistogram(gcPauseBounds),
		goVersion: runtime.Version(),
	}
	p.path, p.version = mainModule()
	if s[6].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[6].Value.Float64()
	}
	if s[7].Value.Kind() == metrics.KindFloat64Histogram {
		fold(&p.pauses, s[7].Value.Float64Histogram())
	}
	return p
}

// fold adds a runtime histogram to h: each runtime bucket [lo, hi) counts
// in the first of h's buckets whose bound is at least hi, so no sample
// lands below its value, and adds its lower edge per sample to the sum.
func fold(h *analysis.Histogram, rh *metrics.Float64Histogram) {
	for i, n := range rh.Counts {
		if n == 0 {
			continue
		}
		lo, hi := rh.Buckets[i], rh.Buckets[i+1]
		h.Counts[sort.SearchFloat64s(h.Bounds, hi)] += n
		if math.IsInf(lo, -1) {
			lo = hi
		}
		h.Sum += float64(n) * lo
		h.Count += n
	}
}
