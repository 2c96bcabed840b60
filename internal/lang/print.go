package lang

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
)

// gofmt is the printer configuration of go/format and cmd/gofmt: text
// printed with it from a consistent AST is what gofmt would leave alone.
// 1<<30 is their shared printerNormalizeNumbers mode bit, which go/printer
// honours but does not export.
var gofmt = printer.Config{Mode: printer.UseSpaces | printer.TabIndent | 1<<30, Tabwidth: 8}

// FormatProgram renders every file of the program to gofmt-formatted
// source, keyed by file name, one declaration at a time. rewritten names the
// procedures whose bodies a pass has rewritten in place: their statements
// carry stale or no positions, which would steer go/printer's line breaks
// and make it interleave the file's comments at the wrong places.
func FormatProgram(p *Program, rewritten map[string]bool) (map[string]string, error) {
	out := make(map[string]string, len(p.Files))
	for _, file := range p.Files {
		name := p.Fset.Position(file.Pos()).Filename
		if name == "" {
			name = file.Name.Name + ".go"
		}
		src, err := formatFile(p.Fset, file, rewritten)
		if err != nil {
			return nil, fmt.Errorf("lang: print %s: %w", name, err)
		}
		out[name] = src
	}
	return out, nil
}

func formatFile(fset *token.FileSet, file *ast.File, rewritten map[string]bool) (string, error) {
	var buf bytes.Buffer
	nowhere := token.NewFileSet() // empty: no position resolves in it

	unit := func() { // a blank line between top-level units
		if buf.Len() > 0 {
			buf.WriteByte('\n')
		}
	}
	// Comments outside every declaration are copied as written, where they
	// stand; upTo emits the ones that end before pos.
	free := file.Comments
	upTo := func(pos token.Pos) {
		for ; len(free) > 0 && free[0].End() <= pos; free = free[1:] {
			unit()
			for _, c := range free[0].List {
				buf.WriteString(c.Text)
				buf.WriteByte('\n')
			}
		}
	}
	upTo(file.Package)
	if file.Doc == nil {
		unit()
	}
	fmt.Fprintf(&buf, "package %s\n", file.Name.Name)
	for _, decl := range file.Decls {
		beg, end := declSpan(decl)
		upTo(beg)
		for len(free) > 0 && free[0].Pos() < end {
			free = free[1:] // the declaration's own: printed with it, or dropped
		}
		unit()
		fn, _ := decl.(*ast.FuncDecl)
		var err error
		if fn != nil && rewritten[fn.Name.Name] {
			// Generated code. The header is untouched and printed as
			// written; the body is printed against the empty file set, so
			// its layout follows from the statements alone and no comment
			// can land inside it.
			if err = gofmt.Fprint(&buf, fset, &ast.FuncDecl{Doc: fn.Doc, Name: fn.Name, Type: fn.Type}); err == nil {
				buf.WriteByte(' ')
				err = gofmt.Fprint(&buf, nowhere, fn.Body)
			}
		} else {
			err = gofmt.Fprint(&buf, fset, &printer.CommentedNode{Node: decl, Comments: file.Comments})
		}
		if err != nil {
			return "", err
		}
		buf.WriteByte('\n')
	}
	upTo(file.FileEnd)
	return buf.String(), nil
}

// declSpan is the source range go/printer attributes to a declaration it
// prints through a CommentedNode: from the doc comment to the end of the
// last trailing comment.
func declSpan(decl ast.Decl) (beg, end token.Pos) {
	beg, end = decl.Pos(), decl.End()
	var doc *ast.CommentGroup
	switch d := decl.(type) {
	case *ast.FuncDecl:
		doc = d.Doc
	case *ast.GenDecl:
		doc = d.Doc
		if n := len(d.Specs); n > 0 {
			if ts, ok := d.Specs[n-1].(*ast.TypeSpec); ok && ts.Comment != nil && ts.Comment.End() > end {
				end = ts.Comment.End()
			}
		}
	}
	if doc != nil {
		beg = doc.Pos()
	}
	return beg, end
}
