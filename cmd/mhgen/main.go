// Command mhgen runs the paper's source transformation from the command
// line: it prepares a module for reconfiguration participation.
//
//	mhgen -module compute -src ./modules/compute [-spec app.mil] \
//	      [-mode all|live|spec] [-o ./gen/compute] [-standalone] [-dot] \
//	      [-strict=false]
//
// The module's .go files (module language, see internal/interp's LANG.md)
// are read from -src. With -spec, the configuration specification supplies
// the per-point state variable lists (Figure 2) and -mode defaults to spec;
// otherwise all locals are captured. The instrumented sources are written
// to -o (or printed). -standalone emits a compilable package main bound to
// repro/mhrt; -dot also writes the static and reconfiguration call graphs
// (Figure 6) in Graphviz form.
//
// Before transforming, mhgen runs the static reconfiguration-safety
// analyzer (internal/analyze, also available as cmd/mhlint) and refuses
// configurations with errors — an unsound capture set, an unreachable
// reconfiguration point, a mistyped binding. -strict=false skips the gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analyze"
	"repro/internal/mil"
	"repro/internal/transform"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mhgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("mhgen", flag.ContinueOnError)
	var (
		moduleName = fs.String("module", "", "module name (required with -spec; otherwise informational)")
		srcDir     = fs.String("src", "", "directory containing the module's .go files (required)")
		specFile   = fs.String("spec", "", "configuration specification supplying reconfiguration point state lists")
		mode       = fs.String("mode", "", "capture mode: all, live or spec (default: spec with -spec, else all)")
		outDir     = fs.String("o", "", "output directory (default: print to stdout)")
		standalone = fs.Bool("standalone", false, "emit a compilable package main bound to repro/mhrt")
		dot        = fs.Bool("dot", false, "also write static.dot and reconfig.dot (Figure 6)")
		report     = fs.Bool("report", true, "print the per-procedure capture report")
		strict     = fs.Bool("strict", true, "refuse to transform a configuration the static analyzer rejects")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *srcDir == "" {
		return fmt.Errorf("-src is required")
	}

	sources, err := readSources(*srcDir)
	if err != nil {
		return err
	}

	opts := transform.Options{PointVars: map[string][]string{}}
	switch *mode {
	case "all":
		opts.Mode = transform.CaptureAll
	case "live":
		opts.Mode = transform.CaptureLive
	case "spec":
		opts.Mode = transform.CaptureSpec
	case "":
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	var spec *mil.Spec
	if *specFile != "" {
		if *moduleName == "" {
			return fmt.Errorf("-module is required with -spec")
		}
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		spec, err = mil.ParseAndValidate(string(data))
		if err != nil {
			return err
		}
		m := spec.Module(*moduleName)
		if m == nil {
			return fmt.Errorf("specification has no module %s", *moduleName)
		}
		for _, pt := range m.ReconfigPoints {
			if len(pt.Vars) > 0 {
				opts.PointVars[pt.Label] = pt.Vars
			}
		}
		if opts.Mode == 0 && len(opts.PointVars) > 0 {
			opts.Mode = transform.CaptureSpec
		}
	}

	// Pre-transform gate: run the static analyzer; errors (an unsound
	// capture set, an unreachable point, ...) stop the transform.
	if *strict {
		acfg := analyze.Config{Sources: sources, Mode: opts.Mode}
		if spec != nil {
			acfg.Spec = spec
			acfg.SpecFile = *specFile
			acfg.Module = *moduleName
		}
		rep, err := analyze.Run(acfg)
		if err != nil {
			return err
		}
		if len(rep.Diags) > 0 {
			fmt.Fprint(os.Stderr, rep.Text())
		}
		if rep.HasErrors() {
			errs, _ := rep.Counts()
			return fmt.Errorf("static analysis found %d error(s); fix the configuration or rerun with -strict=false", errs)
		}
	}

	out, err := transform.Prepare(sources, opts)
	if err != nil {
		return err
	}
	files := out.Files
	if *standalone {
		if files, err = out.Standalone(); err != nil {
			return err
		}
	}

	if *outDir == "" {
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "// ---- %s ----\n%s\n", filepath.Base(n), files[n])
		}
	} else {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for name, src := range files {
			dst := filepath.Join(*outDir, filepath.Base(name))
			if err := os.WriteFile(dst, []byte(src), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "wrote", dst)
		}
		if *dot {
			for name, content := range map[string]string{
				"static.dot":   out.StaticDOT(),
				"reconfig.dot": out.ReconfigDOT(),
			} {
				dst := filepath.Join(*outDir, name)
				if err := os.WriteFile(dst, []byte(content), 0o644); err != nil {
					return err
				}
				fmt.Fprintln(stdout, "wrote", dst)
			}
		}
	}
	if *report {
		fmt.Fprintf(stdout, "\n// reconfiguration graph:\n")
		for _, line := range strings.Split(strings.TrimSpace(out.Graph.String()), "\n") {
			fmt.Fprintln(stdout, "//   "+line)
		}
		fmt.Fprintf(stdout, "// capture sets:\n")
		for _, line := range strings.Split(strings.TrimSpace(out.ReportString()), "\n") {
			fmt.Fprintln(stdout, "//   "+line)
		}
	}
	return nil
}

func readSources(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sources := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sources[e.Name()] = string(data)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return sources, nil
}
