package reconf

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// workloadText returns the raw string literals bench/workloads.go holds,
// keyed by the constant or function that holds them, with a %d — the
// recursion depth of the deep stage — filled with 128, the depth the
// migrate_deep_stack workload runs.
func workloadText(tb testing.TB) map[string]string {
	tb.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "bench/workloads.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
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
				if s, err := strconv.Unquote(n.Value); err == nil && n.Value[0] == '`' {
					if holder == "deepStageSource" {
						s = fmt.Sprintf(s, 128)
					}
					out[holder] = s
				}
			}
			return true
		})
	}
	return out
}

// BenchmarkLoad times what the benchmark's pipeline workloads pay to Load
// their application before launching it: the specification, the stage's
// Prepare and Lower, the bus, instances and bindings. flat is the stage of
// replace_under_load, deep the 128-deep one of migrate_deep_stack.
func BenchmarkLoad(b *testing.B) {
	text := workloadText(b)
	for _, stage := range []struct{ name, holder string }{{"flat", "flatStageSource"}, {"deep", "deepStageSource"}} {
		src, spec := text[stage.holder], text["pipelineSpec"]
		if src == "" || spec == "" {
			b.Fatalf("bench/workloads.go holds no %s or pipelineSpec", stage.holder)
		}
		cfg := Config{
			SpecText: spec,
			Sources:  map[string]ModuleSource{"stage": {Files: map[string]string{"stage.go": src}}},
			Native:   map[string]NativeModule{"source": nil, "sink": nil},
		}
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Load starts nothing, so an App that is never launched
				// holds no goroutine and needs no Stop.
				if _, err := Load(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
