package mil

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// monitorSpec is the Figure 2 configuration specification, transliterated
// into the reproduction's MIL dialect (state clause added so the paper's
// "list the variables comprising the process state" is explicit).
const monitorSpec = `
# Figure 2: the Monitor application.
module display {
  source = "./display" ::
  client interface temper pattern = {integer} accepts {-float} ::
}

module compute {
  source = "./compute" ::
  server interface display pattern = {^integer} returns {float} ::
  use interface sensor pattern = {^integer} ::
  reconfiguration point = {R} ::
  state R = {num, n, rp} ::
}

module sensor {
  source = "./sensor" ::
  define interface out pattern = {integer} ::
}

module monitor {
  instance display
  instance compute on "machineA"
  instance sensor
  bind "display temper" "compute display"
  bind "sensor out" "compute sensor"
}
`

func parseMonitor(t *testing.T) *Spec {
	t.Helper()
	spec, err := ParseAndValidate(monitorSpec)
	if err != nil {
		t.Fatalf("parse monitor spec: %v", err)
	}
	return spec
}

func TestParseMonitorSpec(t *testing.T) {
	spec := parseMonitor(t)
	if len(spec.Modules) != 3 {
		t.Fatalf("got %d modules, want 3", len(spec.Modules))
	}
	if len(spec.Applications) != 1 {
		t.Fatalf("got %d applications, want 1", len(spec.Applications))
	}

	compute := spec.Module("compute")
	if compute == nil {
		t.Fatal("no compute module")
	}
	if compute.Source != "./compute" {
		t.Errorf("compute source = %q", compute.Source)
	}
	if !compute.Reconfigurable() {
		t.Error("compute should be reconfigurable")
	}
	pt := compute.Point("R")
	if pt == nil {
		t.Fatal("compute has no point R")
	}
	if !reflect.DeepEqual(pt.Vars, []string{"num", "n", "rp"}) {
		t.Errorf("point R vars = %v", pt.Vars)
	}

	disp := compute.Interface("display")
	if disp == nil || disp.Role != RoleServer {
		t.Fatalf("compute.display = %+v", disp)
	}
	if len(disp.Pattern) != 1 || disp.Pattern[0].Name != "integer" || disp.Pattern[0].Dir != '^' {
		t.Errorf("compute.display pattern = %v", disp.Pattern)
	}
	if len(disp.Returns) != 1 || disp.Returns[0].Name != "float" {
		t.Errorf("compute.display returns = %v", disp.Returns)
	}

	sens := compute.Interface("sensor")
	if sens == nil || sens.Role != RoleUse {
		t.Fatalf("compute.sensor = %+v", sens)
	}

	temper := spec.Module("display").Interface("temper")
	if temper == nil || temper.Role != RoleClient {
		t.Fatalf("display.temper = %+v", temper)
	}
	if len(temper.Accepts) != 1 || temper.Accepts[0].Dir != '-' {
		t.Errorf("display.temper accepts = %v", temper.Accepts)
	}

	out := spec.Module("sensor").Interface("out")
	if out == nil || out.Role != RoleDefine {
		t.Fatalf("sensor.out = %+v", out)
	}

	app := spec.Application("monitor")
	if app == nil {
		t.Fatal("no monitor application")
	}
	if spec.Application("") != app {
		t.Error("sole application not returned for empty name")
	}
	if len(app.Instances) != 3 || len(app.Binds) != 2 {
		t.Fatalf("app has %d instances, %d binds", len(app.Instances), len(app.Binds))
	}
	ci := app.Instance("compute")
	if ci == nil || ci.Machine != "machineA" {
		t.Errorf("compute instance = %+v", ci)
	}
	if app.Instance("nope") != nil {
		t.Error("Instance(nope) should be nil")
	}
	b := app.Binds[0]
	if b.From != (Endpoint{"display", "temper"}) || b.To != (Endpoint{"compute", "display"}) {
		t.Errorf("bind 0 = %+v", b)
	}
}

func TestRoleSemantics(t *testing.T) {
	tests := []struct {
		role     Role
		sends    bool
		receives bool
	}{
		{RoleClient, true, true},
		{RoleServer, true, true},
		{RoleDefine, true, false},
		{RoleUse, false, true},
	}
	for _, tt := range tests {
		if tt.role.Sends() != tt.sends {
			t.Errorf("%v.Sends() = %t", tt.role, tt.role.Sends())
		}
		if tt.role.Receives() != tt.receives {
			t.Errorf("%v.Receives() = %t", tt.role, tt.role.Receives())
		}
	}
	if Role(9).String() != "role(9)" {
		t.Errorf("unknown role String = %s", Role(9))
	}
}

// TestMonitorSpecRoundTrip reproduces experiment F2: the Figure 2 spec
// survives a parse → print → parse cycle structurally intact.
func TestMonitorSpecRoundTrip(t *testing.T) {
	spec := parseMonitor(t)
	printed := Print(spec)
	spec2, err := ParseAndValidate(printed)
	if err != nil {
		t.Fatalf("reparse printed spec: %v\n%s", err, printed)
	}
	if !reflect.DeepEqual(stripPositions(spec), stripPositions(spec2)) {
		t.Errorf("round trip changed the spec.\nfirst: %#v\nsecond: %#v\nprinted:\n%s",
			stripPositions(spec), stripPositions(spec2), printed)
	}
	// Second print must be a fixed point.
	if printed2 := Print(spec2); printed2 != printed {
		t.Errorf("printing is not a fixed point:\n%s\nvs\n%s", printed, printed2)
	}
}

func stripPositions(s *Spec) *Spec {
	out := &Spec{}
	for _, m := range s.Modules {
		mc := *m
		mc.Pos = Pos{}
		mc.Interfaces = nil
		for _, ifc := range m.Interfaces {
			ic := *ifc
			ic.Pos = Pos{}
			mc.Interfaces = append(mc.Interfaces, &ic)
		}
		mc.ReconfigPoints = nil
		for _, pt := range m.ReconfigPoints {
			pt.Pos = Pos{}
			mc.ReconfigPoints = append(mc.ReconfigPoints, pt)
		}
		if len(mc.Attrs) == 0 {
			mc.Attrs = map[string]string{}
		}
		out.Modules = append(out.Modules, &mc)
	}
	for _, a := range s.Applications {
		ac := &Application{Name: a.Name}
		for _, in := range a.Instances {
			inc := *in
			inc.Pos = Pos{}
			ac.Instances = append(ac.Instances, &inc)
		}
		for _, b := range a.Binds {
			bc := *b
			bc.Pos = Pos{}
			ac.Binds = append(ac.Binds, &bc)
		}
		out.Applications = append(out.Applications, ac)
	}
	return out
}

func TestParseEndpoint(t *testing.T) {
	e, err := ParseEndpoint("compute display")
	if err != nil || e.Instance != "compute" || e.Interface != "display" {
		t.Errorf("ParseEndpoint = %+v, %v", e, err)
	}
	if _, err := ParseEndpoint("justone"); err == nil {
		t.Error("single-word endpoint accepted")
	}
	if _, err := ParseEndpoint("a b c"); err == nil {
		t.Error("three-word endpoint accepted")
	}
	if e.String() != "compute display" {
		t.Errorf("Endpoint.String = %q", e.String())
	}
}

func TestLexerErrors(t *testing.T) {
	cases := []string{
		`module m { source = "unterminated`,
		"module m { source = \"new\nline\" }",
		`module m { source = "bad \q escape" }`,
		`module m { x : y }`,
		`module m @ {}`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestLexerFeatures(t *testing.T) {
	src := `
/* block comment */
module m { // line comment
  source = "a\t\"b\\c" :: # hash comment
  note = ok ;
}`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Module("m")
	if m.Source != "a\t\"b\\c" {
		t.Errorf("escaped source = %q", m.Source)
	}
	if m.Attrs["note"] != "ok" {
		t.Errorf("attrs = %v", m.Attrs)
	}
}

func TestParserErrors(t *testing.T) {
	cases := map[string]string{
		"missing module kw": `thing m {}`,
		"missing name":      `module {}`,
		"missing brace":     `module m source = "x"`,
		"unclosed body":     `module m { source = "x"`,
		"bad clause":        `module m { 42 }`,
		"dup source":        `module m { source = "a" :: source = "b" }`,
		"dup machine":       `module m { machine = "a" :: machine = "b" }`,
		"dup attr":          `module m { k = "a" :: k = "b" }`,
		"bad attr value":    `module m { k = { } }`,
		"iface no name":     `module m { use interface = {} }`,
		"iface bad typeset": `module m { use interface x pattern = {=} }`,
		"reconf no point":   `module m { reconfiguration = {R} }`,
		"reconf empty":      `module m { source = "s" :: reconfiguration point = {} }`,
		"identset bad":      `module m { reconfiguration point = {R=} }`,
		"bind non-string":   `module app { instance a bind x y }`,
		"bind arity":        `module app { instance a :: bind "a b" "c" }`,
		"instance machine":  `module app { instance a on {} }`,
		"mixed clauses":     `module m { source = "x" :: instance a }`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Errorf("no error for %q", src)
			}
		})
	}
}

func TestValidateErrors(t *testing.T) {
	const base = `
module a { source = "a" :: define interface out pattern = {integer} :: }
module b { source = "b" :: use interface in pattern = {integer} :: }
`
	cases := []struct {
		name string
		src  string
		want error
	}{
		{
			"unknown module",
			base + `module app { instance c }`,
			ErrUnknownModule,
		},
		{
			"unknown instance in bind",
			base + `module app { instance a :: instance b :: bind "z out" "b in" }`,
			ErrUnknownInstance,
		},
		{
			"unknown interface in bind",
			base + `module app { instance a :: instance b :: bind "a nope" "b in" }`,
			ErrUnknownInterface,
		},
		{
			"two senders",
			base + `module app { instance a :: instance a as a2 :: bind "a out" "a2 out" }`,
			ErrDirection,
		},
		{
			"two receivers",
			base + `module app { instance b :: instance b as b2 :: bind "b in" "b2 in" }`,
			ErrDirection,
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseAndValidate(tt.src)
			if err == nil {
				t.Fatal("validation passed")
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Errorf("error %v does not match sentinel %v", err, tt.want)
			}
		})
	}
}

func TestValidateModuleErrors(t *testing.T) {
	cases := map[string]string{
		"no source":       `module m { use interface x pattern = {integer} :: }`,
		"dup module":      `module m { source = "a" :: } module m { source = "b" :: }`,
		"dup iface":       `module m { source = "a" :: use interface x :: use interface x :: }`,
		"server no ret":   `module m { source = "a" :: server interface x pattern = {integer} :: }`,
		"client no acc":   `module m { source = "a" :: client interface x pattern = {integer} :: }`,
		"dup point":       `module m { source = "a" :: reconfiguration point = {R, R} :: }`,
		"dup state var":   `module m { source = "a" :: reconfiguration point = {R} :: state R = {x, x} :: }`,
		"dup application": `module x { source = "s" } module app { instance x } module app { instance x }`,
		"app no inst":     `module app { bind "a b" "c d" }`,
		"dup instance":    `module x { source = "s" } module app { instance x :: instance x }`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseAndValidate(src); err == nil {
				t.Error("validation passed")
			}
		})
	}
}

func TestStateClauseBeforePoint(t *testing.T) {
	// A state clause may precede its reconfiguration point declaration.
	src := `module m { source = "s" :: state R = {x} :: reconfiguration point = {R} :: }`
	_, err := ParseAndValidate(src)
	if err == nil {
		// The forward clause creates point R; re-declaring it must be a
		// duplicate...
		t.Fatal("expected duplicate point error for redeclared forward state point")
	}
	// ...whereas the canonical order works.
	src = `module m { source = "s" :: reconfiguration point = {R} :: state R = {x} :: }`
	spec, err := ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	if pt := spec.Module("m").Point("R"); pt == nil || len(pt.Vars) != 1 {
		t.Errorf("point R = %+v", pt)
	}
}

func TestPositionsReported(t *testing.T) {
	_, err := Parse("module m {\n  source = bad:\n}")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a ParseError", err)
	}
	if pe.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Pos.Line)
	}
	if !strings.Contains(pe.Error(), "mil: 2:") {
		t.Errorf("Error() = %q lacks position", pe.Error())
	}
}

func TestInstanceAliasAndPlacement(t *testing.T) {
	src := `
module w { source = "w" :: define interface out pattern = {integer} :: use interface in pattern = {integer} :: }
module app {
  instance w as left on "m1"
  instance w as right on m2
  bind "left out" "right in"
}`
	spec, err := ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	app := spec.Application("app")
	left := app.Instance("left")
	if left == nil || left.Module != "w" || left.Machine != "m1" {
		t.Errorf("left = %+v", left)
	}
	right := app.Instance("right")
	if right == nil || right.Machine != "m2" {
		t.Errorf("right = %+v", right)
	}
}

func TestSpecLookupMisses(t *testing.T) {
	spec := parseMonitor(t)
	if spec.Module("nope") != nil {
		t.Error("Module(nope) should be nil")
	}
	if spec.Application("nope") != nil {
		t.Error("Application(nope) should be nil")
	}
	two := &Spec{Applications: []*Application{{Name: "a"}, {Name: "b"}}}
	if two.Application("") != nil {
		t.Error("ambiguous empty lookup should be nil")
	}
	if spec.Module("compute").Interface("nope") != nil {
		t.Error("Interface(nope) should be nil")
	}
	if spec.Module("compute").Point("nope") != nil {
		t.Error("Point(nope) should be nil")
	}
}

func TestMachineDefaultFromModule(t *testing.T) {
	src := `
module w { source = "w" :: machine = "home" :: define interface out pattern = {integer} :: }
module u { source = "u" :: use interface in pattern = {integer} :: }
module app { instance w :: instance u :: bind "w out" "u in" }`
	spec, err := ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	// The default stays on the module: an unplaced instance carries no
	// machine of its own, and whoever places it reads the module's.
	if in := spec.Application("app").Instance("w"); in == nil || in.Machine != "" {
		t.Errorf("unplaced instance w = %+v, want no machine of its own", in)
	}
	if m := spec.Module("w"); m == nil || m.Machine != "home" {
		t.Errorf("module w = %+v, want machine home", m)
	}
	if m := spec.Module("u"); m == nil || m.Machine != "" {
		t.Errorf("module u = %+v, want no default machine", m)
	}
}

func TestValidateReportsAll(t *testing.T) {
	// One pass surfaces every problem: a missing source, a duplicate
	// interface, an unknown module, and an unknown bind instance.
	src := `
module a { use interface x :: use interface x :: }
module app { instance ghost :: bind "nope out" "ghost in" }`
	_, err := ParseAndValidate(src)
	if err == nil {
		t.Fatal("validation passed")
	}
	var list ErrorList
	if !errors.As(err, &list) {
		t.Fatalf("error %T is not an ErrorList", err)
	}
	if len(list) != 4 {
		t.Fatalf("got %d errors, want 4: %v", len(list), list)
	}
	for _, pe := range list {
		if pe.Pos.Line == 0 {
			t.Errorf("error %v has no position", pe)
		}
	}
	// Distinct sentinels from the same run both match.
	if !errors.Is(err, ErrUnknownModule) || !errors.Is(err, ErrUnknownInstance) {
		t.Errorf("sentinels not all matched in %v", err)
	}
	if !strings.Contains(err.Error(), "and 3 more errors") {
		t.Errorf("Error() = %q", err.Error())
	}
}

func TestInstanceReplicasAndPolicy(t *testing.T) {
	src := `
module w { source = "w" :: define interface out pattern = {integer} :: use interface in pattern = {integer} :: }
module app {
  instance w as pool replicas 3 policy leastqueue
  instance w as feeder
  bind "feeder out" "pool in"
}`
	spec, err := ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	pool := spec.Application("app").Instance("pool")
	if pool.Replicas != 3 || pool.Policy != PolicyLeastQueue || !pool.Replicated() {
		t.Errorf("pool = %+v", pool)
	}
	feeder := spec.Application("app").Instance("feeder")
	if feeder.Replicas != 0 || feeder.Policy != "" || feeder.Replicated() {
		t.Errorf("feeder = %+v", feeder)
	}

	// replicas 1 is a valid degenerate declaration: a plain instance.
	src1 := `
module w { source = "w" :: define interface out pattern = {integer} :: use interface in pattern = {integer} :: }
module app { instance w replicas 1 }`
	spec1, err := ParseAndValidate(src1)
	if err != nil {
		t.Fatal(err)
	}
	if in := spec1.Application("app").Instance("w"); in.Replicated() {
		t.Errorf("replicas 1 counted as replicated: %+v", in)
	}

	// Round-trip: Print must render replicas/policy and reparse equal.
	printed := Print(spec)
	spec2, err := ParseAndValidate(printed)
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	if !reflect.DeepEqual(stripPositions(spec2), stripPositions(spec)) {
		t.Errorf("round trip changed spec:\n%s", printed)
	}
}

func TestValidateReplicaErrors(t *testing.T) {
	header := `module w { source = "w" :: define interface out pattern = {integer} :: use interface in pattern = {integer} :: }`
	tests := []struct {
		name string
		app  string
	}{
		{"unknown policy", `module app { instance w replicas 2 policy fastest }`},
		{"policy without replicas", `module app { instance w policy roundrobin }`},
		{"policy with replicas 1", `module app { instance w replicas 1 policy roundrobin }`},
	}
	for _, tc := range tests {
		if _, err := ParseAndValidate(header + "\n" + tc.app); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Parse-level: replicas needs a number.
	if _, err := Parse(header + "\nmodule app { instance w replicas many }"); err == nil {
		t.Error("non-numeric replica count accepted")
	}
}
