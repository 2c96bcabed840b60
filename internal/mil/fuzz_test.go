package mil

import (
	"errors"
	"go/scanner"
	"testing"

	"repro/internal/fixtures"
)

// FuzzParse throws arbitrary input at the MIL parser and, when a spec
// parses, at the validator. Neither may panic: every malformed input must
// come back as a scanner.ErrorList whose every entry has a line and column.
func FuzzParse(f *testing.F) {
	seeds := []string{
		fixtures.MonitorSpec,
		`module m { source = "a" :: }`,
		`module m { source = "a" :: define interface out pattern = {integer} :: }`,
		`module m { source = "a" :: reconfiguration point = {R} :: state R = {x, y} :: }`,
		`module app { instance a :: instance b as c on "m1" :: bind "a out" "c in" }`,
		`module m { machine = "host" :: k = v :: }`,
		// Near-miss inputs that historically stress error paths.
		`module m { source = bad:`,
		`module app { instance ghost :: bind "ghost out" "ghost in" }`,
		`module m {`,
		`bind "a b" "c d"`,
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err == nil {
			if spec == nil {
				t.Fatal("Parse returned nil spec and nil error")
			}
			// Validation of any parseable spec must not panic either.
			err = Validate(spec)
		}
		if err == nil {
			return
		}
		var list scanner.ErrorList
		if !errors.As(err, &list) || len(list) == 0 {
			t.Fatalf("error %v is not a scanner.ErrorList", err)
		}
		for _, e := range list {
			if !e.Pos.IsValid() || e.Pos.Column < 1 {
				t.Errorf("error %q has no position", e)
			}
		}
	})
}
