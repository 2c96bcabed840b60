package transform

import (
	"fmt"
	"go/ast"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/lang/langtest"
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
// goldens (the examples' and the benchmark's sources among them), the
// multi-file, multi-point and mutual-recursion sources, the seeded
// genWorkerModule programs — check after flatten, after hoist and after
// weave that the AST is still a tree, and after flatten and after hoist
// that the Info the passes kept is the one a fresh check finds. Those are
// the two checks Prepare no longer runs.
//
// It also fails the package when a goroutine a test started outlives the
// tests: a module left running charges its mallocs to whatever runs next
// (TestPrepareWork counts the process's).
func TestMain(m *testing.M) {
	inspect = func(pass string, prog *lang.Program, info *lang.Info) {
		if n := sharedNode(prog); n != nil {
			panic(fmt.Sprintf("after %s the AST is not a tree: %T %v is reachable twice", pass, n, n))
		}
		if info == nil {
			return
		}
		if err := langtest.DiffInfo(prog, info); err != nil {
			panic(fmt.Sprintf("after %s: %v", pass, err))
		}
	}
	base := runtime.NumGoroutine()
	code := m.Run()
	if stacks := leaked(base); stacks != "" {
		fmt.Fprintf(os.Stderr, "goroutines outlived the tests (%d, %d before them):\n%s", runtime.NumGoroutine(), base, stacks)
		code = 1
	}
	os.Exit(code)
}

// leaked waits up to 5 s for the goroutine count to fall back to base and
// returns the stacks of every goroutine if it does not, "" if it does.
func leaked(base int) string {
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; <-time.After(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return string(buf[:runtime.Stack(buf, true)])
		}
	}
	return ""
}

func TestSharedNodeDetected(t *testing.T) {
	prog, err := lang.ParseFiles(map[string]string{"m.go": "package p\nfunc main() { x := 1; x = x + 2 }\n"})
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
