package analyze

import (
	"errors"
	"fmt"
	"go/scanner"
	"go/token"

	"repro/internal/diag"
	"repro/internal/lang"
	"repro/internal/mil"
	"repro/internal/transform"
)

// Config selects what one analyzer run examines. Sources is required;
// everything else widens the set of passes that can run.
type Config struct {
	// Sources maps file name to module source text.
	Sources map[string]string
	// Spec is the parsed configuration specification, or nil to run the
	// source-only passes.
	Spec *mil.Spec
	// SpecFile names the specification file for diagnostic positions.
	SpecFile string
	// Module names the module specification in Spec that describes
	// Sources. Required when Spec is set.
	Module string
	// Replacement maps file name to the proposed replacement module's
	// sources, or nil to skip the replacement-compatibility pass.
	Replacement map[string]string
	// Mode overrides the capture mode under analysis. Zero means the
	// transform default: spec mode when the module declares state lists,
	// all-locals otherwise.
	Mode transform.CaptureMode
}

// Run executes every applicable pass and returns the sorted report and the
// module as transform.Prepare prepared it for those passes: the output a
// transform of this configuration emits. The output is nil when Prepare
// did not run or refused the module; the report then has an error, or
// warns that the module declares no reconfiguration points (MH010). The
// error return is reserved for configuration misuse (no sources, unknown
// module name); analysis findings — including unparseable input — are
// diagnostics, not errors.
func Run(cfg Config) (*diag.Report, *transform.Output, error) {
	if len(cfg.Sources) == 0 {
		return nil, nil, errors.New("analyze: no sources")
	}
	var mod *mil.Module
	if cfg.Spec != nil {
		if cfg.Module == "" {
			return nil, nil, errors.New("analyze: spec given without module name")
		}
		mod = cfg.Spec.Module(cfg.Module)
		if mod == nil {
			return nil, nil, fmt.Errorf("analyze: spec has no module %s", cfg.Module)
		}
	}

	r := &diag.Report{}

	// Pass 0a: specification validity (MH001).
	if cfg.Spec != nil {
		refusals(r, CodeSpecInvalid, cfg.SpecFile, "", mil.Validate(cfg.Spec))
	}

	// Pass 0b: source validity (MH002). Later passes need a checked
	// program.
	prog, info, ok := checked(r, cfg.Sources, "")

	var out *transform.Output
	var opts transform.Options
	if ok {
		// Pass 1: reconfiguration-point placement (MH008–MH010).
		placed := checkPlacement(r, prog, info)

		// Pass 2: spec/source point cross-checks (MH003–MH005).
		if mod != nil {
			opts.PointVars = checkPoints(r, cfg, mod, prog, info)
		}

		// The module prepared once, as the transform would prepare it: the
		// passes below read what Prepare computed, and whatever Prepare
		// refuses is MH016, where the refusal says.
		opts.Mode = transform.ResolveMode(cfg.Mode, opts.PointVars)
		if placed {
			var err error
			if out, err = transform.Prepare(cfg.Sources, opts); err != nil {
				refusals(r, CodeCannotPrepare, "", "module cannot be prepared: ", err)
			}
		}

		// Pass 2b: capture-set soundness (MH006, MH007). Declared lists
		// only matter in spec mode; the other modes derive the set and are
		// sound by construction.
		if out != nil && mod != nil && opts.Mode == transform.CaptureSpec {
			checkCaptureSoundness(r, cfg, mod, out)
		}
	}

	if cfg.Spec != nil {
		// Pass 3: binding compatibility (MH011, MH012) — needs only the spec.
		checkBindings(r, cfg.Spec, cfg.SpecFile)
		// Pass 3b: replica groups the supervisor cannot heal (MH017).
		if mod != nil {
			checkReplicas(r, cfg)
		}
	}

	// Pass 4: replacement compatibility (MH013–MH016).
	if out != nil && len(cfg.Replacement) > 0 {
		checkReplacement(r, out, cfg.Replacement, opts)
	}

	r.Sort()
	return r, out, nil
}

// checkReplicas warns (MH017) about every replica group of the analyzed
// module. A member is rebuilt from the newest checkpoint any member
// published, and only a module that registers a state snapshot
// (mh.Runtime.RegisterSnapshot, a native module) publishes one: a
// module-language module never does, so the supervisor marks a crashed
// member out and leaves it unrebuilt.
func checkReplicas(r *diag.Report, cfg Config) {
	for _, app := range cfg.Spec.Applications {
		for _, in := range app.Instances {
			if in.Module == cfg.Module && in.Replicated() {
				r.Add(CodeReplicasNotRebuilt, diag.SevWarning, milPos(cfg.SpecFile, in.Pos),
					"instance %s runs module %s as %d replicas, but a module-language module publishes no checkpoint; a crashed member is marked out and never rebuilt",
					in.Name, cfg.Module, in.Replicas)
			}
		}
	}
}

// refusals reports every entry of the scanner.ErrorList err wraps as an
// error of code, its message after prefix. An entry names its own position;
// one with no file name (a specification's) is in file.
func refusals(r *diag.Report, code, file, prefix string, err error) {
	if err == nil {
		return
	}
	var list scanner.ErrorList
	if !errors.As(err, &list) {
		list.Add(token.Position{}, err.Error())
	}
	for _, e := range list {
		pos := e.Pos
		if pos.Filename == "" {
			pos.Filename = file
		}
		r.Add(code, diag.SevError, pos, "%s%s", prefix, e.Msg)
	}
}

// checked parses and checks module sources, reporting what lang refuses
// as MH002 with prefix. ok is false when later passes cannot run.
func checked(r *diag.Report, sources map[string]string, prefix string) (*lang.Program, *lang.Info, bool) {
	prog, err := lang.ParseFiles(sources)
	var info *lang.Info
	if err == nil {
		info, err = lang.Check(prog)
	}
	refusals(r, CodeSourceInvalid, "", prefix, err)
	return prog, info, err == nil
}

// milPos converts a MIL position into a token.Position anchored at the
// specification file.
func milPos(specFile string, p mil.Pos) token.Position {
	return token.Position{Filename: specFile, Line: p.Line, Column: p.Col}
}
