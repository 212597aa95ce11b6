package serve_test

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/serve"
)

// statusSansID fetches a /status payload and drops the registry's "id",
// the one field the two front ends may differ in.
func statusSansID(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	delete(st, "id")
	return st
}

// TestFrontEndParity guards the merge of the two run-assembly paths: one
// config.Launch started the way repexd starts it (Registry.Launch) and
// the way cmd/repex -listen starts it (NewRun + Start) produces the same
// slot history and the same /status document.
func TestFrontEndParity(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("..", "..", "configs", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	l, err := config.ParseLaunch([]byte(launchBody(read("chaos_sim_small.json"), read("chaos_small.json"), "")))
	if err != nil {
		t.Fatal(err)
	}

	reg, ts := newDaemon(t, 0, 0)
	daemonRun, err := reg.Launch(l)
	if err != nil {
		t.Fatal(err)
	}
	cliRun, err := serve.NewRun(context.Background(), l, true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	cliRun.Start(slog.Default())
	cli := httptest.NewServer(cliRun.Server().Handler())
	defer cli.Close()

	var reports [2]*core.Report
	for i, r := range []*serve.Run{daemonRun, cliRun} {
		<-r.Done()
		if reports[i], err = r.Result(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := reports[0], reports[1]
	if a.SlotFingerprint != b.SlotFingerprint || a.SlotRows != b.SlotRows || a.ExchangeEvents != b.ExchangeEvents {
		t.Fatalf("repexd ran %d rows %016x in %d events, cmd/repex %d rows %016x in %d events",
			a.SlotRows, a.SlotFingerprint, a.ExchangeEvents, b.SlotRows, b.SlotFingerprint, b.ExchangeEvents)
	}
	daemonSt := statusSansID(t, ts.URL+"/runs/"+daemonRun.ID+"/status")
	cliSt := statusSansID(t, cli.URL+"/status")
	if !reflect.DeepEqual(daemonSt, cliSt) {
		t.Fatalf("/status differs beyond id:\nrepexd:    %v\ncmd/repex: %v", daemonSt, cliSt)
	}
	if cliSt["state"] != "completed" || cliSt["exchange_events"] == float64(0) {
		t.Fatalf("status does not describe a completed run: %v", cliSt)
	}
}
