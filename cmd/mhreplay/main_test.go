package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/mh"
	"repro/internal/state"
)

// recordSpec is the recorded application: a driven source, the filter
// under replay, a driven sink.
const recordSpec = `
module psource {
  source = "./psource" ::
  define interface out pattern = {integer} ::
}

module filter {
  source = "./filter" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module psink {
  source = "./psink" ::
  use interface in pattern = {^integer} ::
}

module pipe {
  instance psource
  instance filter
  instance psink
  bind "psource out" "filter in"
  bind "filter out" "psink in"
}
`

// replaySpec is the offline replay's view of the application: only the
// module under replay needs a runnable source.
const replaySpec = `
module filter {
  source = "./filter" ::
  use interface in pattern = {^integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module pipe {
  instance filter
}
`

const filterSrc = `package filter

func main() {
	var x int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		mh.Write("out", x*3+1)
	}
}
`

// record runs three values through the pipeline with Config.RecordSpill
// set and returns the spill file.
func record(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.rec")
	spill, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	app, err := reconf.Load(reconf.Config{
		SpecText: recordSpec,
		Sources:  map[string]reconf.ModuleSource{"filter": {Files: map[string]string{"filter.go": filterSrc}}},
		Native: map[string]reconf.NativeModule{
			"psource": func(rt *mh.Runtime) {},
			"psink":   func(rt *mh.Runtime) {},
		},
		SleepUnit:    time.Microsecond,
		RecordBuffer: 64,
		RecordSpill:  spill,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	if err := app.Launch("filter"); err != nil {
		t.Fatal(err)
	}
	src, err := app.AttachDriver("psource")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := app.AttachDriver("psink")
	if err != nil {
		t.Fatal(err)
	}
	c := codec.Default()
	for _, v := range []int64{10, 20, 30} {
		data, err := c.EncodeValue(state.IntValue(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Write("out", data); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		if _, err := sink.Read("in"); err != nil {
			t.Fatal(err)
		}
	}
	app.Stop()
	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeModules lays out replaySpec and <srcdir>/<module>/ as the command
// reads them, with extra files beside the filter's source.
func writeModules(t *testing.T, filter string, extra map[string]string) (specFile, srcDir string) {
	t.Helper()
	dir := t.TempDir()
	specFile = filepath.Join(dir, "app.mil")
	if err := os.WriteFile(specFile, []byte(replaySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	srcDir = filepath.Join(dir, "modules")
	files := map[string]string{"filter.go": filter}
	for name, text := range extra {
		files[name] = text
	}
	if err := os.MkdirAll(filepath.Join(srcDir, "filter"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(srcDir, "filter", name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return specFile, srcDir
}

func mhreplay(t *testing.T, args ...string) (int, string, error) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(args, &out)
	return code, out.String(), err
}

func TestMhreplayReproduces(t *testing.T) {
	log := record(t)
	specFile, srcDir := writeModules(t, filterSrc, nil)
	code, out, err := mhreplay(t, "-log", log, "-spec", specFile, "-srcdir", srcDir, "-inst", "filter")
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v:\n%s", code, err, out)
	}
	if !strings.Contains(out, "3 recorded inputs, 3 consumed, 3 outputs (recorded 3)") ||
		!strings.Contains(out, "reproduced: replayed output sequence matches the recording") {
		t.Errorf("output:\n%s", out)
	}
}

func TestMhreplayDiverges(t *testing.T) {
	log := record(t)
	specFile, srcDir := writeModules(t, strings.Replace(filterSrc, "x*3+1", "x*3", 1), nil)
	code, out, err := mhreplay(t, "-log", log, "-spec", specFile, "-srcdir", srcDir, "-inst", "filter")
	if code != 1 || err != nil || !strings.Contains(out, "DIVERGED") {
		t.Fatalf("exit %d, %v:\n%s", code, err, out)
	}
}

// TestMhreplayIgnoresTestFiles: a test file beside a module's source is no
// module source, even where it would not parse as one.
func TestMhreplayIgnoresTestFiles(t *testing.T) {
	log := record(t)
	specFile, srcDir := writeModules(t, filterSrc, map[string]string{
		"helper_test.go": "package filter\n\nthis is not module source\n",
		"notes.txt":      "x",
	})
	code, out, err := mhreplay(t, "-log", log, "-spec", specFile, "-srcdir", srcDir, "-inst", "filter")
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v:\n%s", code, err, out)
	}
}

func TestMhreplayCanon(t *testing.T) {
	log := record(t)
	code, out, err := mhreplay(t, "-log", log, "-canon")
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v:\n%s", code, err, out)
	}
	for _, want := range []string{"queue filter.in (3)", "queue psink.in (3)"} {
		if !strings.Contains(out, want) {
			t.Errorf("-canon output lacks %q:\n%s", want, out)
		}
	}
}

func TestMhreplayUsage(t *testing.T) {
	log := record(t)
	specFile, srcDir := writeModules(t, filterSrc, nil)
	for _, args := range [][]string{
		{},            // no -log
		{"-badflag"},  // unknown flag
		{"-log", log}, // neither -canon nor -spec, -srcdir and -inst
		{"-log", "/nonexistent", "-canon"},
		{"-log", log, "-spec", specFile, "-srcdir", srcDir}, // no -inst
		{"-log", log, "-spec", specFile, "-inst", "filter"}, // no -srcdir
		{"-log", log, "-srcdir", srcDir, "-inst", "filter"}, // no -spec
		{"-log", log, "-spec", specFile, "-srcdir", "/nonexistent", "-inst", "filter"},
	} {
		if code, out, err := mhreplay(t, args...); code != 2 || err == nil {
			t.Errorf("args %v: exit %d, %v:\n%s", args, code, err, out)
		}
	}
}
