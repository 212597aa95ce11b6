package task_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/localexec"
	"repro/internal/task"
)

func validSpec() *task.Spec {
	return &task.Spec{Name: "ok", Kind: task.MD, Cores: 4, Duration: 1.5,
		InFiles: 2, InBytes: 1 << 10, OutFiles: 1, OutBytes: 1 << 9}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*task.Spec)
	}{
		{"zero cores", func(s *task.Spec) { s.Cores = 0 }},
		{"negative cores", func(s *task.Spec) { s.Cores = -2 }},
		{"negative duration", func(s *task.Spec) { s.Duration = -1 }},
		{"negative in files", func(s *task.Spec) { s.InFiles = -1 }},
		{"negative out files", func(s *task.Spec) { s.OutFiles = -1 }},
		{"negative in bytes", func(s *task.Spec) { s.InBytes = -1 }},
		{"negative out bytes", func(s *task.Spec) { s.OutBytes = -1 }},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), s.Name) {
			t.Errorf("%s: error %q does not name the task", tc.name, err)
		}
	}
}

// TestSpecLabel: a named spec is its name; an unnamed MD or single-point
// spec spells out what the engines' per-task names were, negative and
// extreme numbers included.
func TestSpecLabel(t *testing.T) {
	for _, id := range []int{0, 7, 99, 100, 999, 1000, 65535, -1, -7, -100, -1000, math.MaxInt, math.MinInt} {
		if got, want := (&task.Spec{Kind: task.SinglePoint, ReplicaID: id}).Label(), fmt.Sprintf("spe-r%03d", id); got != want {
			t.Errorf("single-point replica %d: %q, want %q", id, got, want)
		}
		for _, c := range []int{0, 1, 9, 10, 99, 100, 12345, -1, -10, math.MaxInt, math.MinInt} {
			s := &task.Spec{Kind: task.MD, ReplicaID: id, Cycle: c}
			if got, want := s.Label(), fmt.Sprintf("md-r%03d-c%02d", id, c); got != want {
				t.Errorf("MD replica %d cycle %d: %q, want %q", id, c, got, want)
			}
		}
	}
	if got := (&task.Spec{Name: "ex-T-d0", Kind: task.MD, ReplicaID: 3}).Label(); got != "ex-T-d0" {
		t.Errorf("named spec labelled %q", got)
	}
	if got := (&task.Spec{Kind: task.Exchange}).Label(); got != "" {
		t.Errorf("unnamed exchange spec labelled %q", got)
	}
	unnamed := &task.Spec{Kind: task.MD, ReplicaID: 4, Cycle: 2}
	if err := unnamed.Validate(); err == nil || !strings.Contains(err.Error(), `"md-r004-c02"`) {
		t.Errorf("Validate of a zero-core unnamed spec: %v, want its label", err)
	}
}

func TestKindString(t *testing.T) {
	for kind, want := range map[task.Kind]string{
		task.MD: "md", task.Exchange: "exchange", task.SinglePoint: "spe", task.Kind(9): "kind(9)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

func TestResultFailed(t *testing.T) {
	r := task.Result{Submitted: 2.5, Finished: 10.0}
	if r.Failed() {
		t.Fatal("result without error reported Failed")
	}
	r.Err = errors.New("boom")
	if !r.Failed() {
		t.Fatal("result with error did not report Failed")
	}
}

func TestRunAll(t *testing.T) {
	rt := localexec.New(2)
	var specs []*task.Spec
	for _, name := range []string{"a", "b", "c"} {
		specs = append(specs, &task.Spec{Name: name, Cores: 1, Run: func() error { return nil }})
	}
	specs = append(specs, &task.Spec{Name: "bad", Cores: 1, Run: func() error { return errors.New("boom") }})
	results := task.RunAll(rt, specs)
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, res := range results {
		if res.Spec != specs[i] {
			t.Fatalf("result %d out of submission order", i)
		}
	}
	if results[3].Err == nil || results[0].Err != nil {
		t.Fatal("errors not propagated per task")
	}
}
