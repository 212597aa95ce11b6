package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// fuzzSource turns fuzz bytes into values; once the bytes run out every
// read is zero.
type fuzzSource struct{ data []byte }

func (s *fuzzSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *fuzzSource) u64() uint64 {
	var b [8]byte
	n := copy(b[:], s.data)
	s.data = s.data[n:]
	return binary.LittleEndian.Uint64(b[:])
}

// int is small most of the time, so rows stay short and digits vary.
func (s *fuzzSource) int() int {
	switch b := s.byte(); b % 4 {
	case 0:
		return int(int64(s.u64()))
	case 1:
		return -int(b)
	default:
		return int(b)
	}
}

// float reaches what encoding/json writes specially: NaN and the
// infinities (no JSON form), negative zero, and both exponent ranges.
func (s *fuzzSource) float() float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 9.99e20, 1e-6, 9.99e-7,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 2.5}
	switch b := s.byte(); b % 4 {
	case 0:
		return math.Float64frombits(s.u64())
	case 1:
		return special[int(b/4)%len(special)]
	default:
		return float64(int8(b)) / 8
	}
}

// str reaches the characters encoding/json escapes: quotes, controls,
// <, > and &, U+2028 and U+2029, and invalid UTF-8.
func (s *fuzzSource) str() string {
	pieces := []string{"relaunch", "<", ">", "&", "\u2028", "\u2029", `"`, `\`, "\n", "\x00", "\xff", "é", "drop"}
	n := int(s.byte() % 5)
	var b []byte
	for i := 0; i < n; i++ {
		if c := s.byte(); c < 128 {
			b = append(b, c)
		} else {
			b = append(b, pieces[int(c)%len(pieces)]...)
		}
	}
	return string(b)
}

// length is -1 for nil, else a short length.
func (s *fuzzSource) length() int { return int(s.byte()%6) - 1 }

func fuzzSlice[T any](s *fuzzSource, elem func() T) []T {
	n := s.length()
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (s *fuzzSource) pairs() [][]analysis.PairStat {
	return fuzzSlice(s, func() []analysis.PairStat {
		return fuzzSlice(s, func() analysis.PairStat { return analysis.PairStat{Attempted: s.u64() % 1000, Accepted: s.u64()} })
	})
}

func (s *fuzzSource) histogram() analysis.Histogram {
	return analysis.Histogram{Bounds: fuzzSlice(s, s.float), Counts: fuzzSlice(s, s.u64), Sum: s.float(), Count: s.u64()}
}

// stats reads the maps first, so short inputs reach their key order.
func (s *fuzzSource) stats() analysis.Stats {
	var st analysis.Stats
	if n := s.length(); n >= 0 {
		st.PilotCores = map[int]int{}
		for i := 0; i < n; i++ {
			st.PilotCores[s.int()] = s.int()
		}
	}
	if n := s.length(); n >= 0 {
		st.Faults = map[string]uint64{}
		for i := 0; i < n; i++ {
			st.Faults[s.str()] = s.u64()
		}
	}
	st.Events, st.MDSegments, st.MDFailures = s.int(), s.int(), s.int()
	st.Acceptance, st.AcceptanceWindow = s.pairs(), s.pairs()
	st.WindowEvents, st.RoundTrips = s.int(), s.int()
	st.MeanRoundTripEvents, st.FullTraversalFraction = s.float(), s.float()
	st.Slots = fuzzSlice(s, s.int)
	st.Traces = fuzzSlice(s, func() []int { return fuzzSlice(s, s.int) })
	st.MDExec, st.ExchangeOverhead = s.histogram(), s.histogram()
	st.ResourceEvents, st.Preemptions = s.u64(), s.u64()
	st.BusDropped = s.u64()
	return st
}

// events is one event of every bus type.
func (s *fuzzSource) events() []core.Event {
	return []core.Event{
		core.MDEvent{At: s.float(), Replica: s.int(), Cycle: s.int(), Exec: s.float(), Failed: s.byte()%2 == 1},
		core.ExchangeEvent{At: s.float(), Event: s.int(), Cycle: s.int(), Dim: s.int(),
			Pairs: fuzzSlice(s, func() core.PairOutcome {
				return core.PairOutcome{Lo: s.int(), Hi: s.int(), ReplicaI: s.int(), ReplicaJ: s.int(), Accepted: s.byte()%2 == 1}
			}),
			Slots: fuzzSlice(s, s.int), MDWall: s.float(), EXWall: s.float()},
		core.FaultEvent{At: s.float(), Replica: s.int(), Kind: s.str(), Retries: s.int(), Exec: s.float()},
		core.RespaceEvent{At: s.float(), Event: s.int(), Dim: s.int(), Refit: s.int(), Old: fuzzSlice(s, s.float), New: fuzzSlice(s, s.float)},
		core.ResourceEvent{At: s.float(), Pilot: s.int(), Kind: s.str(), Cores: s.int(), Delta: s.int(), Notice: s.float()},
	}
}

// FuzzLayoutJSON: what the layouts write is what encoding/json writes
// for the same values, byte for byte. A /stats body is the indented
// text writeJSON writes (json.Encoder, SetIndent("", " ")); an event
// frame's data is the encoder's compact text and newline. On a value
// with no JSON form both write nothing.
func FuzzLayoutJSON(f *testing.F) {
	f.Add([]byte{})
	// Empty and nil slices and maps, a NaN, negative zero, exponents,
	// and fault kinds with <, >, & and U+2028.
	f.Add([]byte{5, 6, 7, 1, 0, 1, 1, 1, 5, 1, 13, 1, 12, 1, 0, 1, 1, 0, 2, 3, 4, 1, 5, 200, 201, 202, 203})
	f.Add([]byte{9, 1, 1, 2, 4, 129, 130, 131, 132, 2, 0, 5, 21, 13, 17, 9, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{3, 3, 3, 0, 0, 0, 0, 0, 0, 1, 129, 1, 45, 1, 13, 1, 17, 1, 21, 1, 25, 1, 29, 1, 33, 1, 37})
	f.Add(bytes.Repeat([]byte{4, 2, 129, 130, 131, 132, 133}, 40))
	// Pilot slots 2, 10 and -1, whose string order is not their numeric
	// order, and fault kinds "<&" and "k\u2029".
	f.Add([]byte{4, 2, 6, 10, 14, 1, 18, 3, 2, '<', '&', 1, 0, 0, 0, 0, 0, 0, 0, 2, 'k', 200, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSource{data: data}
		st := s.stats()
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeStats(got, &st)
		writeJSON(want, st)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("/stats of %+v:\n%s\nencoding/json:\n%s", st, got.Body.Bytes(), want.Body.Bytes())
		}
		var frame sseFrame
		names := []string{"md", "exchange", "fault", "respace", "resource"}
		for i, ev := range s.events() {
			var got, want bytes.Buffer
			frame.write(&got, ev)
			var data bytes.Buffer
			if json.NewEncoder(&data).Encode(ev) == nil {
				fmt.Fprintf(&want, "event: %s\ndata: %s\n", names[i], data.Bytes())
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("frame of %#v:\n%q\nencoding/json:\n%q", ev, got.Bytes(), want.Bytes())
			}
		}
	})
}
