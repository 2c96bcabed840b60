package transform

import (
	"fmt"
	"go/ast"
	"os"
	"testing"

	"repro/internal/lang"
)

// sharedNode returns the first AST node of prog that is reachable twice, or
// nil when the program is a tree. The passes edit the AST in place, which is
// only sound on a tree: an edit at one site of a shared sub-expression
// would change the other site too (printing and re-parsing after every pass
// used to unshare them silently).
func sharedNode(prog *lang.Program) ast.Node {
	seen := map[ast.Node]bool{}
	var shared ast.Node
	for _, file := range prog.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil || shared != nil {
				return false
			}
			if seen[n] {
				shared = n
			}
			seen[n] = true
			return true
		})
	}
	return shared
}

// TestMain makes every Prepare this package's tests run — the fixtures, the
// multi-file, multi-point and mutual-recursion sources, the seeded
// genWorkerModule programs — check after flatten, after hoist and after
// weave that the AST is still a tree.
func TestMain(m *testing.M) {
	inspect = func(pass string, prog *lang.Program) {
		if n := sharedNode(prog); n != nil {
			panic(fmt.Sprintf("after %s the AST is not a tree: %T %v is reachable twice", pass, n, n))
		}
	}
	os.Exit(m.Run())
}

func TestSharedNodeDetected(t *testing.T) {
	prog, err := lang.ParseSource("m.go", "package p\nfunc main() { x := 1; x = x + 2 }\n")
	if err != nil {
		t.Fatal(err)
	}
	if n := sharedNode(prog); n != nil {
		t.Fatalf("freshly parsed program reported as shared at %T", n)
	}
	assign := prog.Funcs["main"].Decl.Body.List[1].(*ast.AssignStmt)
	assign.Rhs[0].(*ast.BinaryExpr).X = assign.Lhs[0]
	if n, ok := sharedNode(prog).(*ast.Ident); !ok || n.Name != "x" {
		t.Errorf("shared identifier x not reported, got %v", n)
	}
}
