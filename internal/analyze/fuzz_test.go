package analyze

import (
	"slices"
	"testing"

	"repro/internal/diag"
	"repro/internal/lang/langtest"
	"repro/internal/transform"
)

// unpositioned lists the refusals that have no place in a file to stand
// at: a program with no main function lacks it everywhere.
var unpositioned = []string{"module program has no main function"}

// FuzzPrepare throws module source at transform.Prepare and at the
// analyzer as the CLIs read it from a module directory: one file, no
// specification. Neither may panic; Run returns no error value; the report
// has an error exactly when Prepare refuses a module that marks points; and
// every error diagnostic stands at a valid position in the file, but for
// the refusals unpositioned lists.
func FuzzPrepare(f *testing.F) {
	for _, src := range agreementModules(f) {
		f.Add(src)
	}
	f.Add(brokenMonitor(f).Sources["compute.go"])
	for _, src := range langtest.EmbeddedModules(f, "../transform/transform_test.go") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg := Config{Sources: map[string]string{"mod.go": src}}
		_, prepErr := transform.Prepare(cfg.Sources, transform.Options{})
		r, _, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if refused := prepErr != nil && hasPoints(cfg.Sources); r.HasErrors() != refused {
			t.Fatalf("Prepare: %v; the report:\n%s", prepErr, r.Text())
		}
		for _, d := range r.Diags {
			if d.Severity == diag.SevError && !inInput(d.Pos, cfg) && !slices.Contains(unpositioned, d.Message) {
				t.Errorf("error %s is not at a position in mod.go", d)
			}
		}
	})
}
