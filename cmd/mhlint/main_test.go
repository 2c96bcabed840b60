package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixtures"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeMonitor lays out the compute module and a (possibly sabotaged)
// Monitor spec in a temp dir.
func writeMonitor(t *testing.T, specText string) (srcDir, specFile string) {
	t.Helper()
	dir := t.TempDir()
	srcDir = filepath.Join(dir, "compute")
	if err := os.MkdirAll(srcDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srcDir, "compute.go"), []byte(fixtures.ComputeSource), 0o644); err != nil {
		t.Fatal(err)
	}
	specFile = filepath.Join(dir, "app.mil")
	if err := os.WriteFile(specFile, []byte(specText), 0o644); err != nil {
		t.Fatal(err)
	}
	return srcDir, specFile
}

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestMhlintCleanMonitor(t *testing.T) {
	srcDir, specFile := writeMonitor(t, fixtures.MonitorSpec)
	code, out, stderr := runLint(t, "-src", srcDir, "-spec", specFile, "-module", "compute")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s, stdout: %s", code, stderr, out)
	}
	if !strings.Contains(out, "ok: no diagnostics") {
		t.Errorf("stdout: %s", out)
	}
}

func TestMhlintUnsoundCaptureSet(t *testing.T) {
	spec := strings.Replace(fixtures.MonitorSpec,
		"state R = {num, n, rp} ::", "state R = {n, rp} ::", 1)
	srcDir, specFile := writeMonitor(t, spec)
	code, out, _ := runLint(t, "-src", srcDir, "-spec", specFile, "-module", "compute")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s", code, out)
	}
	if !strings.Contains(out, "MH006") || !strings.Contains(out, "num") {
		t.Errorf("stdout: %s", out)
	}
}

func TestMhlintWarningsExitZero(t *testing.T) {
	spec := strings.Replace(fixtures.MonitorSpec,
		"state R = {num, n, rp} ::", "state R = {num, n, rp, temper} ::", 1)
	srcDir, specFile := writeMonitor(t, spec)
	code, out, _ := runLint(t, "-src", srcDir, "-spec", specFile, "-module", "compute")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stdout: %s", code, out)
	}
	if !strings.Contains(out, "MH007") || !strings.Contains(out, "temper") {
		t.Errorf("stdout: %s", out)
	}
}

func TestMhlintReplacement(t *testing.T) {
	srcDir, specFile := writeMonitor(t, fixtures.MonitorSpec)
	newDir := filepath.Join(t.TempDir(), "compute.v2")
	if err := os.MkdirAll(newDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The replacement widens num to float64: the AR-stack frames no
	// longer map.
	newSrc := strings.Replace(fixtures.ComputeSource,
		"func compute(num int, n int, rp *float64)",
		"func compute(num float64, n int, rp *float64)", 1)
	newSrc = strings.Replace(newSrc, "float64(num)", "num", 1)
	newSrc = strings.Replace(newSrc, "compute(n, n, &response)", "compute(float64(n), n, &response)", 1)
	newSrc = strings.Replace(newSrc, "compute(1, 1, &response)", "compute(1.0, 1, &response)", 1)
	if err := os.WriteFile(filepath.Join(newDir, "compute.go"), []byte(newSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runLint(t,
		"-src", srcDir, "-spec", specFile, "-module", "compute", "-new", newDir)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s stderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, "MH014") {
		t.Errorf("stdout: %s", out)
	}
}

func TestMhlintJSONGolden(t *testing.T) {
	spec := strings.Replace(fixtures.MonitorSpec,
		"state R = {num, n, rp} ::", "state R = {n, rp, temper} ::", 1)
	srcDir, specFile := writeMonitor(t, spec)
	code, out, _ := runLint(t, "-json", "-src", srcDir, "-spec", specFile, "-module", "compute")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s", code, out)
	}
	// The spec lives in a temp dir; normalize its path for the golden.
	got := strings.ReplaceAll(out, specFile, "app.mil")

	path := filepath.Join("testdata", "unsound.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("JSON mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestMhlintUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                       // no -src
		{"-src", "/nonexistent"}, // bad dir
		{"-badflag"},             // unknown flag
		{"-src", ".", "-mode", "bogus"},
	}
	for _, args := range cases {
		if code, _, _ := runLint(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
	// -spec without -module
	srcDir, specFile := writeMonitor(t, fixtures.MonitorSpec)
	if code, _, _ := runLint(t, "-src", srcDir, "-spec", specFile); code != 2 {
		t.Error("spec without module accepted")
	}
	// unknown module
	if code, _, _ := runLint(t, "-src", srcDir, "-spec", specFile, "-module", "ghost"); code != 2 {
		t.Error("unknown module accepted")
	}
}

func TestMhlintReportsPrepareRefusal(t *testing.T) {
	// A pointer-typed local live at the point: the transform refuses the
	// module, and mhlint says so (MH016) instead of passing it.
	srcDir := t.TempDir()
	src := `package m

func main() {
	var x int
	var p *int
	p = &x
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", p)
		mh.Write("out", *p)
	}
}
`
	if err := os.WriteFile(filepath.Join(srcDir, "m.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runLint(t, "-src", srcDir)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s stderr: %s", code, out, stderr)
	}
	if strings.Count(out, "MH016") != 1 || !strings.Contains(out, "1 error(s)") {
		t.Errorf("stdout: %s", out)
	}
}

// TestMhlintReplacementPositionsNameTheirProgram: with a mod.go in both
// directories, a finding in the replacement is positioned in the
// replacement's file, named by its -new directory, not at a bare mod.go
// that reads as the original's.
func TestMhlintReplacementPositionsNameTheirProgram(t *testing.T) {
	const old = `package main

func main() {
	var n int
	for {
		n = n + 1
		mh.ReconfigPoint("R")
		mh.Write("out", n)
	}
}
`
	dir := t.TempDir()
	oldDir, newDir := filepath.Join(dir, "old"), filepath.Join(dir, "new")
	for d, text := range map[string]string{
		oldDir: old,
		newDir: strings.NewReplacer("var n int", "var s string", "n = n + 1", `s = s + "x"`, `"out", n`, `"out", s`).Replace(old),
	} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "mod.go"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, stderr := runLint(t, "-src", oldDir, "-new", newDir)
	if code != 1 || !strings.Contains(out, "MH014") {
		t.Fatalf("exit %d; stdout: %s stderr: %s", code, out, stderr)
	}
	if want := filepath.Join(newDir, "mod.go") + ":3:1: error[MH014]"; !strings.HasPrefix(out, want) {
		t.Errorf("stdout: %s, want it to start %q", out, want)
	}
}
