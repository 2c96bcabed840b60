// Command mhlint statically verifies a module configuration for dynamic
// reconfiguration safety before the transform (cmd/mhgen) ever runs.
//
//	mhlint -src ./modules/compute [-spec app.mil -module compute] \
//	       [-new ./modules/compute.v2] [-mode all|live|spec] [-json]
//
// It runs the internal/analyze passes over the module source, the MIL
// configuration, and (with -new) a proposed replacement module:
//
//   - capture-set soundness: the declared state lists (Figure 2) are
//     diffed against the liveness analysis — live-but-uncaptured
//     variables are errors, captured-but-dead ones are warnings;
//   - reconfiguration-point placement: unreachable points and reachable
//     recursive cycles with no point;
//   - binding compatibility: message signatures across every binding;
//   - replacement compatibility: procedure-by-procedure AR-stack shape,
//     edge numbering, and point labels of the old vs new module;
//   - whatever else makes the transform refuse either module, and replica
//     groups of the module that a crash would leave unrebuilt.
//
// Diagnostics carry stable MHxxx codes (documented in the README) and
// render as compiler-style text or, with -json, a stable JSON form.
//
// Exit status: 0 when clean or warnings only, 1 when any error was
// reported, 2 on usage or I/O problems.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/cmd/internal/modsrc"
	"repro/internal/analyze"
	"repro/internal/mil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mhlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		srcDir     = fs.String("src", "", "directory containing the module's .go files (required)")
		specFile   = fs.String("spec", "", "configuration specification to check against")
		moduleName = fs.String("module", "", "module name in the specification (required with -spec)")
		newDir     = fs.String("new", "", "directory containing a proposed replacement module's .go files")
		mode       = fs.String("mode", "", "capture mode under analysis: all, live or spec (default: spec when the specification declares state lists)")
		jsonOut    = fs.Bool("json", false, "emit diagnostics as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *srcDir == "" {
		fmt.Fprintln(stderr, "mhlint: -src is required")
		fs.Usage()
		return 2
	}

	cfg := analyze.Config{}
	var err error
	if cfg.Mode, err = modsrc.ParseMode(*mode); err != nil {
		fmt.Fprintln(stderr, "mhlint:", err)
		return 2
	}
	cfg.Sources, err = modsrc.Read(*srcDir)
	if err != nil {
		fmt.Fprintln(stderr, "mhlint:", err)
		return 2
	}
	if *specFile != "" {
		if *moduleName == "" {
			fmt.Fprintln(stderr, "mhlint: -module is required with -spec")
			return 2
		}
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fmt.Fprintln(stderr, "mhlint:", err)
			return 2
		}
		// Parse only: validation findings are MH001 diagnostics.
		spec, err := mil.Parse(string(data))
		if err != nil {
			fmt.Fprintln(stderr, "mhlint:", err)
			return 2
		}
		cfg.Spec = spec
		cfg.SpecFile = *specFile
		cfg.Module = *moduleName
	}
	if *newDir != "" {
		files, err := modsrc.Read(*newDir)
		if err != nil {
			fmt.Fprintln(stderr, "mhlint:", err)
			return 2
		}
		// Both programs may hold a mod.go: the replacement's positions
		// name its directory, so a diagnostic says which program it is in.
		cfg.Replacement = map[string]string{}
		for name, text := range files {
			cfg.Replacement[filepath.Join(*newDir, name)] = text
		}
	}

	rep, _, err := analyze.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mhlint:", err)
		return 2
	}
	if *jsonOut {
		fmt.Fprint(stdout, rep.JSON())
	} else {
		fmt.Fprint(stdout, rep.Text())
	}
	if rep.HasErrors() {
		return 1
	}
	return 0
}
