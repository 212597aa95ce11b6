package engines

import (
	"fmt"
	"math"
	"testing"
)

func TestTaskNamesMatchSprintf(t *testing.T) {
	cycles := []int{0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 12345, -1, -10, math.MaxInt, math.MinInt}
	check := func(id int) {
		if got, want := speTaskName(id), fmt.Sprintf("spe-r%03d", id); got != want {
			t.Fatalf("speTaskName(%d) = %q, want %q", id, got, want)
		}
		for _, c := range cycles {
			if got, want := mdTaskName(id, c), fmt.Sprintf("md-r%03d-c%02d", id, c); got != want {
				t.Fatalf("mdTaskName(%d, %d) = %q, want %q", id, c, got, want)
			}
		}
	}
	for id := 0; id <= 65535; id++ {
		check(id)
	}
	for _, id := range []int{-1, -7, -100, -1000, math.MaxInt, math.MinInt} {
		check(id)
	}
	for c := 0; c <= 12345; c++ {
		if got, want := mdTaskName(7, c), fmt.Sprintf("md-r%03d-c%02d", 7, c); got != want {
			t.Fatalf("mdTaskName(7, %d) = %q, want %q", c, got, want)
		}
	}
}

func TestTaskNameAllocatesOnlyTheString(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = mdTaskName(4095, 12) }); n > 1 {
		t.Fatalf("mdTaskName allocates %v times, want the string only", n)
	}
}
