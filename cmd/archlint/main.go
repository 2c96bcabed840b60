// Command archlint checks the repository's architectural invariants:
// nothing blocking under the routing writer lock, the lock-free ring's
// publication protocol, allocation-free hot paths, allowlisted goroutine
// spawn sites, and the package layering DAG. See internal/archlint for the
// diagnostic codes.
//
// Usage:
//
//	archlint [-json] [-C dir] [packages]
//
// The analyzer always checks the whole module containing dir (default:
// the current directory); a trailing package pattern such as ./... is
// accepted for familiarity and ignored. Exit status is 0 when the tree is
// clean, 1 when any diagnostic is reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/archlint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("archlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	dir := fs.String("C", ".", "directory inside the module to check")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: archlint [-json] [-C dir] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "archlint: %v\n", err)
		return 2
	}
	report, err := archlint.Run(archlint.Config{Dir: root})
	if err != nil {
		fmt.Fprintf(stderr, "archlint: %v\n", err)
		return 2
	}
	if *jsonOut {
		fmt.Fprint(stdout, report.JSON())
	} else {
		fmt.Fprint(stdout, report.Text())
	}
	if len(report.Diags) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot ascends from dir to the nearest directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}
