package transform

import (
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// embeddedModules returns the module sources a Go file embeds as raw string
// literals (the ones that start with a package clause), keyed by the
// constant or function that holds them. A %d in a source is the recursion
// depth of bench's deep stage and is filled with 128.
func embeddedModules(t testing.TB, path string) map[string]string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, decl := range file.Decls {
		holder := ""
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				holder = n.Name.Name
			case *ast.ValueSpec:
				holder = n.Names[0].Name
			case *ast.BasicLit:
				if src, err := strconv.Unquote(n.Value); err == nil && n.Value[0] == '`' && strings.HasPrefix(src, "package ") {
					if strings.Contains(src, "%d") {
						src = fmt.Sprintf(src, 128)
					}
					out[holder] = src
				}
			}
			return true
		})
	}
	return out
}

type goldenCase struct {
	name, src string
	opts      Options
}

// goldenCases are the modules whose woven text is pinned: Figure 3's compute
// under each capture mode, the two stage sources the benchmark loads, and
// every module source the examples embed.
func goldenCases(t *testing.T) []goldenCase {
	cases := []goldenCase{
		{"compute_all", computeSrc, Options{Mode: CaptureAll}},
		{"compute_live", computeSrc, Options{Mode: CaptureLive}},
		{"compute_spec", computeSrc, Options{Mode: CaptureSpec, PointVars: map[string][]string{"R": {"num", "n", "rp"}}}},
	}
	for _, path := range []string{"../../bench/workloads.go", "../../examples/hotswap/main.go", "../../examples/pipeline/main.go"} {
		mods := embeddedModules(t, path)
		if len(mods) == 0 {
			t.Fatalf("%s embeds no module source", path)
		}
		dir := filepath.Base(filepath.Dir(path))
		for _, holder := range sortedKeys(mods) {
			cases = append(cases, goldenCase{dir + "_" + holder, mods[holder], Options{}})
		}
	}
	return cases
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestWovenTextGolden pins Prepare's output byte for byte, and checks what
// format.Source used to guarantee when it produced that output: gofmt has
// nothing to change in it.
func TestWovenTextGolden(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			got, err := prepare(t, tc.src, tc.opts).Source()
			if err != nil {
				t.Fatal(err)
			}
			if formatted, err := format.Source([]byte(got)); err != nil || string(formatted) != got {
				t.Errorf("output is not a gofmt fixed point (err %v):\n%s", err, got)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("woven text moved (rerun with -update if intended)\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}
