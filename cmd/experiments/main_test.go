package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// figures are the artefacts that run in virtual time and are
// deterministic. Figure 4 is real MD and stays on
// TestFig4ValidationReduced's tolerance.
var figures = []string{"5", "6", "7", "8", "9", "10", "11", "12", "13", "table1"}

// checkFigures compares the output of `experiments -fig F` for each of
// figures in turn, at -quick or not, with testdata/golden. The goldens are
// never regenerated: a mismatch means a figure of the paper moved — fix
// the code.
func checkFigures(t *testing.T, golden string, quick bool) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, fig := range figures {
		if err := run(&got, fig, quick); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output moved off testdata/%s:\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestQuickGolden pins the figures at -quick. quick.golden was written by
// the harness as it stood before its runs went through one helper, and is
// byte-identical to the pre-PR-13 substrate's.
func TestQuickGolden(t *testing.T) { checkFigures(t, "quick.golden", true) }

// TestFullGolden pins the same figures at the paper's own scale (about
// 1.6 s); full.golden was written by the kernel that switched to the
// orchestrator on every wakeup. It runs under -short too.
func TestFullGolden(t *testing.T) { checkFigures(t, "full.golden", false) }

func TestRunRejectsUnknownArtefact(t *testing.T) {
	if err := run(new(bytes.Buffer), "14", true); err == nil {
		t.Fatal("artefact 14 accepted")
	}
}
