package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickGolden compares figures 5–13 and table 1 at -quick, which run
// in virtual time and are deterministic, with testdata/quick.golden: the
// output of `experiments -quick -fig F` for each of them in turn, written
// by the harness as it stood before its runs went through one helper,
// and byte-identical to the pre-PR-13 substrate's. It is never
// regenerated: a mismatch means a figure of the paper moved — fix the
// code. Figure 4 is real MD and stays on TestFig4ValidationReduced's
// tolerance.
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, fig := range []string{"5", "6", "7", "8", "9", "10", "11", "12", "13", "table1"} {
		if err := run(&got, fig, true); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("-quick output moved off testdata/quick.golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

func TestRunRejectsUnknownArtefact(t *testing.T) {
	if err := run(new(bytes.Buffer), "14", true); err == nil {
		t.Fatal("artefact 14 accepted")
	}
}
