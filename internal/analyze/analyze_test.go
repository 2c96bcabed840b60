package analyze

import (
	"fmt"
	"go/token"
	"slices"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/fixtures"
	"repro/internal/lang"
	"repro/internal/lang/langtest"
	"repro/internal/mil"
	"repro/internal/transform"
)

// runOn analyzes one in-memory configuration.
func runOn(t *testing.T, cfg Config) *diag.Report {
	t.Helper()
	r, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// parseSpec parses (without validating — Run validates) a spec text.
func parseSpec(t testing.TB, src string) *mil.Spec {
	t.Helper()
	spec, err := mil.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// codes returns the diagnostic codes of a report, in report order.
func codes(r *diag.Report) []string {
	var out []string
	for _, d := range r.Diags {
		out = append(out, d.Code)
	}
	return out
}

func hasCode(r *diag.Report, code string) bool {
	for _, d := range r.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestMonitorFixtureClean(t *testing.T) {
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": fixtures.ComputeSource},
		Spec:     parseSpec(t, fixtures.MonitorSpec),
		SpecFile: "app.mil",
		Module:   "compute",
	})
	if len(r.Diags) != 0 {
		t.Errorf("Monitor fixture not clean:\n%s", r.Text())
	}
	if r.HasErrors() {
		t.Error("HasErrors on clean run")
	}
}

// monitorSpecWithState returns the Monitor spec with compute's state list
// replaced.
func monitorSpecWithState(t *testing.T, stateList string) *mil.Spec {
	t.Helper()
	src := strings.Replace(fixtures.MonitorSpec,
		"state R = {num, n, rp} ::", stateList, 1)
	if src == fixtures.MonitorSpec && stateList != "state R = {num, n, rp} ::" {
		t.Fatal("state clause not found in fixture spec")
	}
	return parseSpec(t, src)
}

func TestCaptureMissingVariable(t *testing.T) {
	// Dropping num from the Figure 2 list loses live state: num feeds the
	// average update after the point.
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": fixtures.ComputeSource},
		Spec:     monitorSpecWithState(t, "state R = {n, rp} ::"),
		SpecFile: "app.mil",
		Module:   "compute",
	})
	if !hasCode(r, CodeCaptureMissing) {
		t.Fatalf("no MH006 in %v", codes(r))
	}
	if !r.HasErrors() {
		t.Error("MH006 must be an error")
	}
	d := r.Diags[0]
	if d.Pos.Filename != "app.mil" || d.Pos.Line == 0 {
		t.Errorf("MH006 position = %v, want spec position", d.Pos)
	}
	if !strings.Contains(d.Message, "num") {
		t.Errorf("MH006 message %q does not name num", d.Message)
	}
}

func TestCaptureDeadVariable(t *testing.T) {
	// temper is rewritten by mh.Read before every use after the point:
	// capturing it is pure waste (warning, not error).
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": fixtures.ComputeSource},
		Spec:     monitorSpecWithState(t, "state R = {num, n, rp, temper} ::"),
		SpecFile: "app.mil",
		Module:   "compute",
	})
	if !hasCode(r, CodeCaptureDead) {
		t.Fatalf("no MH007 in %v", codes(r))
	}
	if r.HasErrors() {
		t.Errorf("dead capture must be warning-only:\n%s", r.Text())
	}
	if !strings.Contains(r.Diags[0].Message, "temper") {
		t.Errorf("MH007 message %q does not name temper", r.Diags[0].Message)
	}
}

func TestUnknownStateVariable(t *testing.T) {
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": fixtures.ComputeSource},
		Spec:     monitorSpecWithState(t, "state R = {num, n, rp, ghost} ::"),
		SpecFile: "app.mil",
		Module:   "compute",
	})
	if !hasCode(r, CodeUnknownStateVar) {
		t.Fatalf("no MH005 in %v", codes(r))
	}
	if !r.HasErrors() {
		t.Error("MH005 must be an error")
	}
}

func TestSpecPointWithoutMarker(t *testing.T) {
	spec := parseSpec(t, strings.Replace(fixtures.MonitorSpec,
		"reconfiguration point = {R} ::",
		"reconfiguration point = {R, Q} ::", 1))
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": fixtures.ComputeSource},
		Spec:     spec,
		SpecFile: "app.mil",
		Module:   "compute",
	})
	if !hasCode(r, CodePointNoMarker) {
		t.Fatalf("no MH003 in %v", codes(r))
	}
}

func TestSourceMarkerNotInSpec(t *testing.T) {
	src := strings.Replace(fixtures.ComputeSource,
		"mh.Read(\"sensor\", &temper)",
		"mh.ReconfigPoint(\"S\")\n\tmh.Read(\"sensor\", &temper)", 1)
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": src},
		Spec:     parseSpec(t, fixtures.MonitorSpec),
		SpecFile: "app.mil",
		Module:   "compute",
	})
	if !hasCode(r, CodeMarkerNotInSpec) {
		t.Fatalf("no MH004 in %v", codes(r))
	}
	if r.HasErrors() {
		t.Errorf("undeclared marker must be warning-only:\n%s", r.Text())
	}
}

func TestUnreachablePoint(t *testing.T) {
	r := runOn(t, Config{Sources: map[string]string{"m.go": `package m

func main() {
	mh.Init()
	mh.ReconfigPoint("R0")
}

func orphan() {
	mh.ReconfigPoint("R")
}
`}})
	if !hasCode(r, CodePointUnreachable) {
		t.Fatalf("no MH008 in %v", codes(r))
	}
	if !r.HasErrors() {
		t.Error("MH008 must be an error")
	}
	for _, d := range r.Diags {
		if d.Code == CodePointUnreachable && d.Pos.Filename != "m.go" {
			t.Errorf("MH008 position = %v, want source position", d.Pos)
		}
	}
}

func TestRecursiveCycleWithoutPoint(t *testing.T) {
	r := runOn(t, Config{Sources: map[string]string{"m.go": `package m

func main() {
	mh.ReconfigPoint("R")
	spin(3)
}

func spin(n int) {
	if n > 0 {
		spin(n - 1)
	}
}
`}})
	if !hasCode(r, CodeCycleNoPoint) {
		t.Fatalf("no MH009 in %v", codes(r))
	}
	if r.HasErrors() {
		t.Errorf("MH009 must be warning-only:\n%s", r.Text())
	}
	if !strings.Contains(r.Diags[0].Message, "spin") {
		t.Errorf("MH009 message %q does not name the cycle", r.Diags[0].Message)
	}
}

func TestCycleWithPointIsClean(t *testing.T) {
	// The Monitor compute module is itself a recursive cycle containing R.
	r := runOn(t, Config{Sources: map[string]string{"compute.go": fixtures.ComputeSource}})
	if hasCode(r, CodeCycleNoPoint) {
		t.Errorf("MH009 on a cycle that contains a point:\n%s", r.Text())
	}
}

func TestNoPointsWarning(t *testing.T) {
	r := runOn(t, Config{Sources: map[string]string{"m.go": `package m

func main() {
	mh.Init()
}
`}})
	if !hasCode(r, CodeNoPoints) {
		t.Fatalf("no MH010 in %v", codes(r))
	}
	if r.HasErrors() {
		t.Error("MH010 must be warning-only")
	}
}

func TestSourceErrorsReported(t *testing.T) {
	r := runOn(t, Config{Sources: map[string]string{"m.go": `package m

func main() {
	x := undeclared
	_ = x
}
`}})
	if !hasCode(r, CodeSourceInvalid) {
		t.Fatalf("no MH002 in %v", codes(r))
	}
}

// TestSyntaxErrorPositioned: what go/parser refuses is MH002 where
// go/parser says, with go/parser's message.
func TestSyntaxErrorPositioned(t *testing.T) {
	r := runOn(t, Config{Sources: map[string]string{"mod.go": `package p
func main() {
	x := 
}`}})
	if got := r.Text(); got != "mod.go:4:1: error[MH002]: expected operand, found '}'\n1 error(s), 0 warning(s)\n" {
		t.Errorf("report:\n%s", got)
	}
}

func TestSpecErrorsReported(t *testing.T) {
	// A spec whose bind names an unknown instance: every finding becomes
	// an MH001 with a spec position.
	spec := parseSpec(t, `
module m { source = "./m" :: reconfiguration point = {R} :: }
module app { instance m :: bind "ghost out" "m in" }
`)
	r := runOn(t, Config{
		Sources: map[string]string{"m.go": `package m

func main() {
	mh.ReconfigPoint("R")
}
`},
		Spec:     spec,
		SpecFile: "app.mil",
		Module:   "m",
	})
	if !hasCode(r, CodeSpecInvalid) {
		t.Fatalf("no MH001 in %v", codes(r))
	}
	for _, d := range r.Diags {
		if d.Code == CodeSpecInvalid && d.Pos.Filename != "app.mil" {
			t.Errorf("MH001 position = %v", d.Pos)
		}
	}
}

const bindModuleSrc = `package a

func main() {
	mh.ReconfigPoint("R")
}
`

func TestBindingTypeMismatch(t *testing.T) {
	spec := parseSpec(t, `
module a { source = "./a" :: reconfiguration point = {R} :: define interface out pattern = {integer} :: }
module b { source = "./b" :: use interface in pattern = {string} :: }
module app { instance a :: instance b :: bind "a out" "b in" }
`)
	r := runOn(t, Config{
		Sources:  map[string]string{"a.go": bindModuleSrc},
		Spec:     spec,
		SpecFile: "app.mil",
		Module:   "a",
	})
	if !hasCode(r, CodeBindingMismatch) {
		t.Fatalf("no MH011 in %v", codes(r))
	}
	if !r.HasErrors() {
		t.Error("MH011 must be an error")
	}
}

func TestBindingArityMismatch(t *testing.T) {
	spec := parseSpec(t, `
module a { source = "./a" :: reconfiguration point = {R} :: define interface out pattern = {integer, integer} :: }
module b { source = "./b" :: use interface in pattern = {integer} :: }
module app { instance a :: instance b :: bind "a out" "b in" }
`)
	r := runOn(t, Config{
		Sources:  map[string]string{"a.go": bindModuleSrc},
		Spec:     spec,
		SpecFile: "app.mil",
		Module:   "a",
	})
	if !hasCode(r, CodeBindingMismatch) {
		t.Fatalf("no MH011 in %v", codes(r))
	}
}

func TestBindingClientServerRoundTrip(t *testing.T) {
	// A client/server pair checks both directions: request pattern and
	// reply set. The reply here is mistyped.
	spec := parseSpec(t, `
module c { source = "./c" :: reconfiguration point = {R} :: client interface call pattern = {integer} accepts {-string} :: }
module s { source = "./s" :: server interface serve pattern = {^integer} returns {float} :: }
module app { instance c :: instance s :: bind "c call" "s serve" }
`)
	r := runOn(t, Config{
		Sources:  map[string]string{"c.go": strings.Replace(bindModuleSrc, "package a", "package c", 1)},
		Spec:     spec,
		SpecFile: "app.mil",
		Module:   "c",
	})
	if !hasCode(r, CodeBindingMismatch) {
		t.Fatalf("no MH011 in %v", codes(r))
	}
}

func TestUnknownMILType(t *testing.T) {
	spec := parseSpec(t, `
module a { source = "./a" :: reconfiguration point = {R} :: define interface out pattern = {widget} :: }
module b { source = "./b" :: use interface in pattern = {integer} :: }
module app { instance a :: instance b :: bind "a out" "b in" }
`)
	r := runOn(t, Config{
		Sources:  map[string]string{"a.go": bindModuleSrc},
		Spec:     spec,
		SpecFile: "app.mil",
		Module:   "a",
	})
	if !hasCode(r, CodeUnknownMILType) {
		t.Fatalf("no MH012 in %v", codes(r))
	}
	if hasCode(r, CodeBindingMismatch) {
		t.Errorf("unknown type must suppress the kind comparison:\n%s", r.Text())
	}
	if r.HasErrors() {
		t.Error("MH012 must be warning-only")
	}
}

const replOldSrc = `package m

func main() {
	var r float64
	work(3, &r)
	mh.Write("out", r)
}

func work(n int, rp *float64) {
	mh.ReconfigPoint("R")
	*rp = float64(n)
}
`

func replCfg(newSrc string) Config {
	return Config{
		Sources:     map[string]string{"m.go": replOldSrc},
		Replacement: map[string]string{"m.go": newSrc},
	}
}

func TestReplacementCompatible(t *testing.T) {
	// A behavioral change with the same reconfiguration structure is
	// accepted.
	r := runOn(t, replCfg(strings.Replace(replOldSrc,
		"*rp = float64(n)", "*rp = float64(n) * 2.0", 1)))
	if len(r.Diags) != 0 {
		t.Errorf("compatible replacement flagged:\n%s", r.Text())
	}
}

func TestReplacementDropsProcedure(t *testing.T) {
	r := runOn(t, replCfg(`package m

func main() {
	var r float64
	work2(3, &r)
	mh.Write("out", r)
}

func work2(n int, rp *float64) {
	mh.ReconfigPoint("R")
	*rp = float64(n)
}
`))
	if !hasCode(r, CodeReplacementDropsProc) {
		t.Fatalf("no MH013 in %v", codes(r))
	}
	if !r.HasErrors() {
		t.Error("MH013 must be an error")
	}
}

func TestReplacementTypeMismatch(t *testing.T) {
	r := runOn(t, replCfg(`package m

func main() {
	var r float64
	work(3, &r)
	mh.Write("out", r)
}

func work(n float64, rp *float64) {
	mh.ReconfigPoint("R")
	*rp = n
}
`))
	if !hasCode(r, CodeReplacementShape) {
		t.Fatalf("no MH014 in %v", codes(r))
	}
	if !r.HasErrors() {
		t.Error("type mismatch must be an error")
	}
}

func TestReplacementRenameIsWarning(t *testing.T) {
	r := runOn(t, replCfg(`package m

func main() {
	var r float64
	work(3, &r)
	mh.Write("out", r)
}

func work(count int, rp *float64) {
	mh.ReconfigPoint("R")
	*rp = float64(count)
}
`))
	if !hasCode(r, CodeReplacementShape) {
		t.Fatalf("no MH014 in %v", codes(r))
	}
	if r.HasErrors() {
		t.Errorf("a pure rename must be warning-only:\n%s", r.Text())
	}
}

func TestReplacementEdgeMismatch(t *testing.T) {
	r := runOn(t, replCfg(`package m

func main() {
	var r float64
	work(3, &r)
	work(4, &r)
	mh.Write("out", r)
}

func work(n int, rp *float64) {
	mh.ReconfigPoint("R")
	*rp = float64(n)
}
`))
	if !hasCode(r, CodeReplacementEdges) {
		t.Fatalf("no MH015 in %v", codes(r))
	}
}

func TestReplacementDropsPointLabel(t *testing.T) {
	r := runOn(t, replCfg(strings.Replace(replOldSrc,
		`mh.ReconfigPoint("R")`, `mh.ReconfigPoint("S")`, 1)))
	if !hasCode(r, CodeReplacementEdges) {
		t.Fatalf("no MH015 in %v", codes(r))
	}
}

func TestReplacementCannotBePrepared(t *testing.T) {
	// A replacement with no reconfiguration point has no structure to
	// receive the state: the transform refuses it, and that is MH016, not
	// an edge mismatch.
	r := runOn(t, replCfg(strings.Replace(replOldSrc, `mh.ReconfigPoint("R")`, "", 1)))
	if got := codes(r); len(got) != 1 || got[0] != CodeCannotPrepare {
		t.Fatalf("codes = %v, want [%s]:\n%s", got, CodeCannotPrepare, r.Text())
	}
	if !strings.HasPrefix(r.Diags[0].Message, "replacement module cannot be prepared: ") {
		t.Errorf("message = %q", r.Diags[0].Message)
	}
	if at := r.Diags[0].Pos.String(); at != "m.go:3:1" {
		t.Errorf("MH016 at %s, want the replacement's main", at)
	}
}

// TestReplacementSourceInvalid: a replacement that does not type-check is
// MH002 at the checker's position, not MH016.
func TestReplacementSourceInvalid(t *testing.T) {
	r := runOn(t, replCfg(strings.Replace(replOldSrc, "var r float64", "var r float64 = nope", 1)))
	if got := codes(r); len(got) != 1 || got[0] != CodeSourceInvalid {
		t.Fatalf("codes = %v, want [%s]:\n%s", got, CodeSourceInvalid, r.Text())
	}
	if d := r.Diags[0]; d.Pos.String() != "m.go:4:18" || !strings.HasPrefix(d.Message, "replacement: ") {
		t.Errorf("diagnostic = %s, want a replacement: finding at m.go:4:18", d)
	}
}

// pointerLocalSrc keeps an address in a local that is live at the
// reconfiguration point: an address is no abstract state, so the
// transform refuses the module.
const pointerLocalSrc = `package m

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

func TestPrepareRefusalReported(t *testing.T) {
	sources := map[string]string{"m.go": pointerLocalSrc}
	if _, err := transform.Prepare(sources, transform.Options{}); err == nil {
		t.Fatal("Prepare accepted a live pointer-typed local")
	}
	r, out, err := Run(Config{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if got := codes(r); len(got) != 1 || got[0] != CodeCannotPrepare || !r.HasErrors() {
		t.Fatalf("codes = %v, want one %s error:\n%s", got, CodeCannotPrepare, r.Text())
	}
	if !strings.Contains(r.Diags[0].Message, "module cannot be prepared: ") ||
		!strings.Contains(r.Diags[0].Message, "p") {
		t.Errorf("message = %q", r.Diags[0].Message)
	}
	if out != nil {
		t.Error("Run returned an output for a module Prepare refused")
	}
	if d := r.Diags[0]; d.Pos.String() != "m.go:5:6" {
		t.Errorf("MH016 at %v, want the declaration of p at m.go:5:6", d.Pos)
	}
}

// TestPrepareRefusalBesideSpecErrors: an error an earlier pass reports
// (MH003, a specification point with no marker) does not hide Prepare's
// refusal of the same module. Both are reported, each where it is.
func TestPrepareRefusalBesideSpecErrors(t *testing.T) {
	r := runOn(t, Config{
		Sources:  map[string]string{"m.go": pointerLocalSrc},
		Spec:     parseSpec(t, `module m { source = "./m" :: reconfiguration point = {R, Q} :: }`),
		SpecFile: "app.mil",
		Module:   "m",
	})
	if got := codes(r); !slices.Equal(got, []string{CodePointNoMarker, CodeCannotPrepare}) {
		t.Fatalf("codes = %v, want [%s %s]:\n%s", got, CodePointNoMarker, CodeCannotPrepare, r.Text())
	}
	if at := r.Diags[0].Pos.String(); at != "app.mil:1:30" {
		t.Errorf("MH003 at %s, want the specification's point list", at)
	}
	if at := r.Diags[1].Pos.String(); at != "m.go:5:6" {
		t.Errorf("MH016 at %s, want the declaration of p", at)
	}
}

// TestRunReturnsPrepared: the output Run returns is the one Prepare makes
// of the same configuration, so a caller that transforms after analyzing
// (mhgen) need not prepare again.
func TestRunReturnsPrepared(t *testing.T) {
	spec := parseSpec(t, fixtures.MonitorSpec)
	sources := map[string]string{"compute.go": fixtures.ComputeSource}
	_, out, err := Run(Config{Sources: sources, Spec: spec, SpecFile: "app.mil", Module: "compute"})
	if err != nil || out == nil {
		t.Fatalf("Run: out %v, err %v", out, err)
	}
	want, err := transform.Prepare(sources, transform.Options{PointVars: spec.Module("compute").PointVars()})
	if err != nil {
		t.Fatal(err)
	}
	gotFiles, err := out.Files()
	if err != nil {
		t.Fatal(err)
	}
	wantFiles, err := want.Files()
	if err != nil {
		t.Fatal(err)
	}
	if gotFiles["compute.go"] != wantFiles["compute.go"] || out.ReportString() != want.ReportString() {
		t.Errorf("Run's output differs from Prepare's:\n%s\n--- want ---\n%s", gotFiles["compute.go"], wantFiles["compute.go"])
	}
}

// TestAnalyzerAgreesWithTransform: a module with reconfiguration points
// that transform.Prepare refuses draws at least one analyzer error, over
// every module source the analyzer's tests run on (pointerLocalSrc among
// them) and the benchmark's stages, each analyzed alone, and the Monitor's
// compute with its specification, as written and as the broken golden
// sabotages it.
func TestAnalyzerAgreesWithTransform(t *testing.T) {
	cfgs := map[string]Config{
		"broken_monitor": brokenMonitor(t),
		"clean_monitor": {Sources: map[string]string{"compute.go": fixtures.ComputeSource},
			Spec: parseSpec(t, fixtures.MonitorSpec), SpecFile: "app.mil", Module: "compute"},
	}
	for k, src := range agreementModules(t) {
		cfgs[k] = Config{Sources: map[string]string{"m.go": src}}
	}

	refused := 0
	for name, cfg := range cfgs {
		opts := transform.Options{Mode: cfg.Mode}
		if cfg.Spec != nil {
			opts.PointVars = cfg.Spec.Module(cfg.Module).PointVars()
		}
		_, prepErr := transform.Prepare(cfg.Sources, opts)
		r := runOn(t, cfg)
		if prepErr == nil || !hasPoints(cfg.Sources) {
			continue
		}
		refused++
		if !r.HasErrors() {
			t.Errorf("%s: Prepare refuses it (%v), the analyzer reports no error:\n%s", name, prepErr, r.Text())
		}
		for _, d := range r.Diags {
			if d.Severity == diag.SevError && !inInput(d.Pos, cfg) {
				t.Errorf("%s: error %s is not at a position in the input", name, d)
			}
		}
	}
	t.Logf("%d configurations, %d with points refused by Prepare", len(cfgs), refused)
	if refused < 5 {
		t.Errorf("Prepare refused %d module(s) with points, want the five this package's tests write", refused)
	}
}

// agreementModules is every module source the analyzer's tests run on and
// the benchmark's stages, keyed by where each is written.
func agreementModules(t testing.TB) map[string]string {
	modules := langtest.EmbeddedModules(t, "analyze_test.go")
	for k, src := range langtest.EmbeddedModules(t, "../../bench/workloads.go") {
		modules[k] = src
	}
	modules["fixtures.ComputeSource"] = fixtures.ComputeSource
	modules["fixtures.SensorSource"] = fixtures.SensorSource
	modules["fixtures.DisplaySource"] = fixtures.DisplaySource
	return modules
}

// inInput reports whether pos is a valid position in one of cfg's files.
func inInput(pos token.Position, cfg Config) bool {
	_, src := cfg.Sources[pos.Filename]
	return pos.IsValid() && (src || cfg.Spec != nil && pos.Filename == cfg.SpecFile)
}

// hasPoints reports whether a module's sources mark a reconfiguration
// point; sources that do not check count as marking one, since the
// analyzer must report them.
func hasPoints(sources map[string]string) bool {
	prog, err := lang.ParseFiles(sources)
	if err != nil {
		return true
	}
	info, err := lang.Check(prog)
	return err != nil || len(info.Points) > 0
}

func TestReplicatedModuleWarning(t *testing.T) {
	spec := strings.Replace(fixtures.MonitorSpec, "instance compute", "instance compute replicas 3", 1)
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": fixtures.ComputeSource},
		Spec:     parseSpec(t, spec),
		SpecFile: "app.mil",
		Module:   "compute",
	})
	if got := codes(r); len(got) != 1 || got[0] != CodeReplicasNotRebuilt {
		t.Fatalf("codes = %v, want [%s]:\n%s", got, CodeReplicasNotRebuilt, r.Text())
	}
	if r.HasErrors() {
		t.Error("MH017 must be warning-only")
	}
	if d := r.Diags[0]; d.Pos.Filename != "app.mil" || d.Pos.Line == 0 {
		t.Errorf("MH017 position = %v, want the instance in the specification", d.Pos)
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := Run(Config{}); err == nil {
		t.Error("no sources accepted")
	}
	spec := parseSpec(t, `module m { source = "./m" :: }`)
	if _, _, err := Run(Config{Sources: map[string]string{"m.go": bindModuleSrc}, Spec: spec}); err == nil {
		t.Error("spec without module name accepted")
	}
	if _, _, err := Run(Config{Sources: map[string]string{"m.go": bindModuleSrc}, Spec: spec, Module: "ghost"}); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestCaptureSoundnessSkippedOutsideSpecMode(t *testing.T) {
	// Under an explicit all-locals mode the declared lists are unused;
	// the dropped-variable error must not fire.
	r := runOn(t, Config{
		Sources:  map[string]string{"compute.go": fixtures.ComputeSource},
		Spec:     monitorSpecWithState(t, "state R = {rp} ::"),
		SpecFile: "app.mil",
		Module:   "compute",
		Mode:     transform.CaptureAll,
	})
	if hasCode(r, CodeCaptureMissing) {
		t.Errorf("MH006 fired in all mode:\n%s", r.Text())
	}
}

// TestLiveCaptureSetsCheckAsSound: live mode and the analyzer read one
// liveness. For the Monitor's compute and the benchmark's two stages, each
// procedure's live-mode capture set, declared back as the state list of its
// points, draws no MH006 (nothing live is missing) and, on these modules,
// no MH007 either (nothing captured is dead at every capture).
func TestLiveCaptureSetsCheckAsSound(t *testing.T) {
	modules := langtest.EmbeddedModules(t, "../../bench/workloads.go")
	if len(modules) < 2 {
		t.Fatalf("%d stages embedded in the benchmark, want 2", len(modules))
	}
	modules["fixtures.ComputeSource"] = fixtures.ComputeSource
	for key, src := range modules {
		t.Run(key, func(t *testing.T) {
			sources := map[string]string{"m.go": src}
			out, err := transform.Prepare(sources, transform.Options{Mode: transform.CaptureLive})
			if err != nil {
				t.Fatal(err)
			}
			spec := "module m {\n  source = \"./m\" ::\n"
			for _, e := range out.Graph.Edges {
				if !e.IsReconfig() {
					continue
				}
				var vars []string
				for _, cv := range out.Funcs[e.Caller].Captured {
					vars = append(vars, cv.Name)
				}
				spec += fmt.Sprintf("  reconfiguration point = {%s} ::\n", e.Point.Label)
				if len(vars) > 0 {
					spec += fmt.Sprintf("  state %s = {%s} ::\n", e.Point.Label, strings.Join(vars, ", "))
				}
			}
			spec += "}\n"
			r := runOn(t, Config{Sources: sources, Spec: parseSpec(t, spec), SpecFile: "app.mil", Module: "m"})
			if len(r.Diags) != 0 {
				t.Errorf("live-mode capture sets declared as state lists:\n%s\n%s", spec, r.Text())
			}
		})
	}
}
