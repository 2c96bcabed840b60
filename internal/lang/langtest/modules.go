package langtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// EmbeddedModules returns the module sources a Go file holds as raw string
// literals that start with a package clause, keyed by file and line. A %d
// in a source is the recursion depth of the benchmark's deep stage and is
// filled with 128.
func EmbeddedModules(t testing.TB, path string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || lit.Value[0] != '`' {
			return true
		}
		if src, _ := strconv.Unquote(lit.Value); strings.HasPrefix(src, "package ") {
			if strings.Contains(src, "%d") {
				src = fmt.Sprintf(src, 128)
			}
			out[fmt.Sprintf("%s:%d", path, fset.Position(lit.Pos()).Line)] = src
		}
		return true
	})
	return out
}
