// Package modsrc is what the module tools (mhgen, mhlint, mhreplay,
// polybus) share: reading module-language sources from disk and parsing
// the capture-mode flag.
package modsrc

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/transform"
)

// Read returns the module sources of dir: its .go files, test files
// (_test.go) excepted, keyed by base name so diagnostics print stable
// paths. A directory with none is an error.
func Read(dir string) (map[string]string, error) {
	files, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return files, nil
}

// ReadAll returns the sources of every module under srcdir, one
// subdirectory per module (<srcdir>/<module>/*.go, test files excepted).
// A subdirectory with no .go files is no module.
func ReadAll(srcdir string) (map[string]reconf.ModuleSource, error) {
	entries, err := os.ReadDir(srcdir)
	if err != nil {
		return nil, err
	}
	modules := map[string]reconf.ModuleSource{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := goFiles(filepath.Join(srcdir, e.Name()))
		if err != nil {
			return nil, err
		}
		if len(files) > 0 {
			modules[e.Name()] = reconf.ModuleSource{Files: files}
		}
	}
	return modules, nil
}

func goFiles(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = string(data)
	}
	return files, nil
}

// ParseMode parses a -mode flag: all, live or spec, or empty for
// transform.ResolveMode's default.
func ParseMode(s string) (transform.CaptureMode, error) {
	if s == "" {
		return 0, nil
	}
	for _, m := range []transform.CaptureMode{transform.CaptureAll, transform.CaptureLive, transform.CaptureSpec} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown -mode %q", s)
}
