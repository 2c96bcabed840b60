package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixtures"
)

func writeModule(t *testing.T) (srcDir, specFile string) {
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
	if err := os.WriteFile(specFile, []byte(fixtures.MonitorSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return srcDir, specFile
}

func TestMhgenWritesInstrumentedModule(t *testing.T) {
	srcDir, specFile := writeModule(t)
	outDir := filepath.Join(t.TempDir(), "gen")

	err := run([]string{
		"-src", srcDir,
		"-spec", specFile,
		"-module", "compute",
		"-o", outDir,
		"-dot",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := os.ReadFile(filepath.Join(outDir, "compute.go"))
	if err != nil {
		t.Fatal(err)
	}
	// Spec mode applied: the Figure 2 state list {num, n, rp}.
	if !strings.Contains(string(gen), `mh.Capture("compute", "liiF", 4, num, n, *rp)`) {
		t.Errorf("generated module missing spec-mode capture:\n%s", gen)
	}
	for _, f := range []string{"static.dot", "reconfig.dot"} {
		data, err := os.ReadFile(filepath.Join(outDir, f))
		if err != nil || len(data) == 0 {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestMhgenStandalone(t *testing.T) {
	srcDir, _ := writeModule(t)
	outDir := filepath.Join(t.TempDir(), "gen")
	err := run([]string{"-src", srcDir, "-o", outDir, "-standalone", "-mode", "all"}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := os.ReadFile(filepath.Join(outDir, "mh_main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(boot), "mhrt.MustFromEnv") {
		t.Errorf("bootstrap:\n%s", boot)
	}
	gen, err := os.ReadFile(filepath.Join(outDir, "compute.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gen), "package main") || !strings.Contains(string(gen), "func mhModuleMain()") {
		t.Errorf("standalone module:\n%s", gen)
	}
}

func TestMhgenErrors(t *testing.T) {
	srcDir, specFile := writeModule(t)
	cases := [][]string{
		{},                                 // no -src
		{"-src", "/nonexistent"},           // bad dir
		{"-src", srcDir, "-mode", "bogus"}, // bad mode
	}
	for _, args := range cases {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("no error for %v", args)
		}
	}
	// -spec without -module
	if err := run([]string{"-src", srcDir, "-spec", specFile}, os.Stdout); err == nil {
		t.Error("spec without module accepted")
	}
	// unknown module in spec
	if err := run([]string{"-src", srcDir, "-spec", specFile, "-module", "ghost"}, os.Stdout); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestMhgenStrictGate(t *testing.T) {
	// Sabotage the Figure 2 state list: dropping num loses live state, so
	// the analyzer gate must refuse to transform.
	srcDir, _ := writeModule(t)
	dir := t.TempDir()
	badSpec := filepath.Join(dir, "bad.mil")
	spec := strings.Replace(fixtures.MonitorSpec,
		"state R = {num, n, rp} ::", "state R = {n, rp} ::", 1)
	if err := os.WriteFile(badSpec, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "gen")
	args := []string{"-src", srcDir, "-spec", badSpec, "-module", "compute", "-o", outDir}

	err := run(args, os.Stdout)
	if err == nil {
		t.Fatal("strict gate passed an unsound capture set")
	}
	if !strings.Contains(err.Error(), "static analysis") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, statErr := os.Stat(filepath.Join(outDir, "compute.go")); statErr == nil {
		t.Error("output written despite failed gate")
	}

	// The escape hatch still transforms.
	if err := run(append(args, "-strict=false"), os.Stdout); err != nil {
		t.Fatalf("-strict=false: %v", err)
	}
}

// writeSource lays out a one-file module directory.
func writeSource(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestMhgenStrictGateRefusesWhatPrepareRefuses(t *testing.T) {
	// A live pointer-typed local: the analyzer reports the transform's
	// refusal (MH016), so the gate stops the run before any output.
	srcDir := writeSource(t, `package m

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
`)
	outDir := filepath.Join(t.TempDir(), "gen")
	err := run([]string{"-src", srcDir, "-o", outDir}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "static analysis found 1 error(s)") {
		t.Fatalf("strict gate: %v", err)
	}
	if _, statErr := os.Stat(outDir); statErr == nil {
		t.Error("output written despite failed gate")
	}
	err = run([]string{"-src", srcDir, "-o", outDir, "-strict=false"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "pointer-typed local p") {
		t.Fatalf("-strict=false: %v", err)
	}
}

func TestMhgenNothingToTransform(t *testing.T) {
	srcDir := writeSource(t, "package m\n\nfunc main() {\n\tmh.Init()\n}\n")
	for _, args := range [][]string{{"-src", srcDir}, {"-src", srcDir, "-strict=false"}} {
		if err := run(args, os.Stdout); err == nil || !strings.Contains(err.Error(), "no reconfiguration points") {
			t.Errorf("%v: %v", args, err)
		}
	}
}
