// Package diag is the shared diagnostics vocabulary of the repository's
// static analyzers: a Diagnostic with a stable code, a severity and a source
// position, collected into a Report that renders deterministically as
// compiler-style text or stable JSON.
//
// A Diagnostic is a classified finding. What the parsers and passes of the
// module path refuse (mil, lang, the callgraph, transform.Prepare) is the
// unclassified kind, a go/scanner.Error carrying only a position and a
// message; an analyzer makes a Diagnostic of it by naming its code and
// severity.
//
// Two analyzers build on it: internal/analyze (the reconfiguration-safety
// analyzer behind cmd/mhlint, codes MHxxx) and internal/archlint (the
// architectural-invariant analyzer behind cmd/archlint, codes ALxxx). Both
// emit the same wire and text forms, so tooling that consumes one consumes
// the other.
package diag

import (
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Severity classifies a diagnostic.
type Severity int

// Severities. Errors make the analyzed artifact unsafe to use; warnings
// flag waste or risks that do not compromise soundness.
const (
	SevWarning Severity = iota + 1
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Code     string         `json:"code"`
	Severity Severity       `json:"severity"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the compiler-style text form.
func (d Diagnostic) String() string {
	if d.Pos.Filename != "" || d.Pos.IsValid() {
		return fmt.Sprintf("%s: %s[%s]: %s", d.Pos, d.Severity, d.Code, d.Message)
	}
	return fmt.Sprintf("%s[%s]: %s", d.Severity, d.Code, d.Message)
}

// diagJSON is the stable wire form of a Diagnostic.
type diagJSON struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
}

// Report collects the diagnostics of one analyzer run.
type Report struct {
	Diags []Diagnostic
}

// Add appends a diagnostic.
func (r *Report) Add(code string, sev Severity, pos token.Position, format string, args ...any) {
	r.Diags = append(r.Diags, Diagnostic{
		Code:     code,
		Severity: sev,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Sort orders diagnostics by file, line, column, then code, making both
// renderings deterministic.
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// HasErrors reports whether any diagnostic is an error.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Counts returns the number of errors and warnings.
func (r *Report) Counts() (errors, warnings int) {
	for _, d := range r.Diags {
		if d.Severity == SevError {
			errors++
		} else {
			warnings++
		}
	}
	return errors, warnings
}

// Text renders the report as one line per diagnostic plus a summary line.
func (r *Report) Text() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	errs, warns := r.Counts()
	if len(r.Diags) == 0 {
		b.WriteString("ok: no diagnostics\n")
	} else {
		fmt.Fprintf(&b, "%d error(s), %d warning(s)\n", errs, warns)
	}
	return b.String()
}

// JSON renders the report in the stable machine-readable form.
func (r *Report) JSON() string {
	errs, warns := r.Counts()
	out := struct {
		Diagnostics []diagJSON `json:"diagnostics"`
		Errors      int        `json:"errors"`
		Warnings    int        `json:"warnings"`
	}{Diagnostics: []diagJSON{}, Errors: errs, Warnings: warns}
	for _, d := range r.Diags {
		out.Diagnostics = append(out.Diagnostics, diagJSON{
			Code:     d.Code,
			Severity: d.Severity,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		// The structure contains only marshalable fields; this is
		// unreachable but kept explicit.
		return fmt.Sprintf(`{"error": %q}`, err.Error())
	}
	return string(data) + "\n"
}
