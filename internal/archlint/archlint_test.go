package archlint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
)

// runOn analyzes the fixture module at dir and returns its report.
func runOn(t *testing.T, dir string) *diag.Report {
	t.Helper()
	report, err := Run(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Run(%s): %v", dir, err)
	}
	return report
}

// compareGolden checks got against the golden file, rewriting it when
// ARCHLINT_UPDATE=1 is set.
func compareGolden(t *testing.T, goldenPath, got string) {
	t.Helper()
	if os.Getenv("ARCHLINT_UPDATE") == "1" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("update %s: %v", goldenPath, err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with ARCHLINT_UPDATE=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestFixtures runs every testdata/ALxxx fixture pair: the bad module must
// reproduce its golden text and JSON reports byte for byte and contain at
// least one diagnostic of the code under test; the ok module must be clean.
func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "AL") {
			continue
		}
		code := e.Name()
		t.Run(code+"/bad", func(t *testing.T) {
			report := runOn(t, filepath.Join("testdata", code, "bad"))
			if len(report.Diags) == 0 {
				t.Errorf("bad fixture produced no %s diagnostic:\n%s", code, report.Text())
			}
			for _, d := range report.Diags {
				if d.Code != code {
					t.Errorf("bad fixture leaked a foreign diagnostic: %s", d)
				}
			}
			compareGolden(t, filepath.Join("testdata", code, "bad.txt"), report.Text())
			compareGolden(t, filepath.Join("testdata", code, "bad.json"), report.JSON())
		})
		t.Run(code+"/ok", func(t *testing.T) {
			report := runOn(t, filepath.Join("testdata", code, "ok"))
			if len(report.Diags) != 0 {
				t.Errorf("ok fixture is not clean:\n%s", report.Text())
			}
		})
	}
}

// TestSelfHost is the self-hosting gate: archlint must run clean on the
// repository that defines it.
func TestSelfHost(t *testing.T) {
	report := runOn(t, "../..")
	if len(report.Diags) != 0 {
		t.Errorf("repository violates its own architectural invariants:\n%s", report.Text())
	}
}

// TestDeterminism pins that two runs over the same tree render byte-identical
// sorted output in both formats.
func TestDeterminism(t *testing.T) {
	dir := filepath.Join("testdata", "AL007", "bad")
	first := runOn(t, dir)
	second := runOn(t, dir)
	if first.Text() != second.Text() {
		t.Errorf("text output is not deterministic:\n--- first ---\n%s--- second ---\n%s",
			first.Text(), second.Text())
	}
	if first.JSON() != second.JSON() {
		t.Errorf("JSON output is not deterministic")
	}
	for i := 1; i < len(first.Diags); i++ {
		a, b := first.Diags[i-1], first.Diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("report not sorted: %s before %s", a, b)
		}
	}
}
