package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serve"
)

// hugeCountBody is 254 bytes that ask for a 2^31-rung temperature
// ladder, 16 GiB of float64s: before config capped the grid it killed
// the daemon that parsed it.
const hugeCountBody = `{"sim": {"name": "sixteen-gib-ask", "dimensions": [{"type": "T", "count": 2147483648, "min": 273, "max": 373}], "cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": 2}, "res": {"machine": "small", "nodes": 1, "cores_per_node": 8, "pilot_cores": 8}}`

// TestHostileLaunchRefused: a launch whose grid is above config's cap,
// by one dimension's count, by a product of counts or by a product of
// explicit values, is answered 400 through the registry's own handler,
// and refusing it allocates at most refuseBytes, a quarter of a ladder
// at the cap (65 536 float64s): no ladder or replica is built first. The
// rows read 3, 4 and 23 KB (go1.24.0).
func TestHostileLaunchRefused(t *testing.T) {
	const refuseBytes = 128 << 10
	values := func(n int) string {
		v := make([]string, n)
		for i := range v {
			v[i] = fmt.Sprint(273 + i)
		}
		return "[" + strings.Join(v, ", ") + "]"
	}
	sim := func(dims string) string {
		return `{"name": "hostile", "dimensions": [` + dims + `], "cores_per_replica": 1, "steps_per_cycle": 2000, "cycles": 2}`
	}
	rows := []struct{ name, body string }{
		{"count 2^31", hugeCountBody},
		{"three counts of 1000", launchBody(sim(`{"type": "T", "count": 1000, "min": 273, "max": 373},
			{"type": "S", "count": 1000, "min": 0.1, "max": 1},
			{"type": "U", "count": 1000, "torsion": "phi"}`), resBody8, "")},
		{"257 x 256 explicit values", launchBody(sim(`{"type": "T", "values": `+values(257)+`},
			{"type": "S", "values": `+values(256)+`}`), resBody8, "")},
	}
	if len(hugeCountBody) != 254 {
		t.Fatalf("the count body is %d bytes, want 254", len(hugeCountBody))
	}
	h := serve.NewRegistry(0, 0).Handler()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// The least of three: other goroutines' allocations and
			// encoding/json's first-use caches only add.
			least := uint64(0)
			for k := 0; k < 3; k++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/runs", strings.NewReader(row.body))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				h.ServeHTTP(rec, req)
				runtime.ReadMemStats(&after)
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "cap") {
					t.Fatalf("status %d, body %q: want 400 naming the cap", rec.Code, rec.Body.String())
				}
				if b := after.TotalAlloc - before.TotalAlloc; k == 0 || b < least {
					least = b
				}
			}
			t.Logf("%d-byte body refused, %d bytes allocated", len(row.body), least)
			if least > refuseBytes {
				t.Errorf("refusing it allocated %d bytes, want at most %d", least, refuseBytes)
			}
		})
	}
}
