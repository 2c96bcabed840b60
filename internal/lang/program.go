package lang

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"sort"
)

// VarDef is one declared variable (parameter or local) of a function.
type VarDef struct {
	Name    string
	Type    Type
	IsParam bool
	Ident   *ast.Ident // declaring identifier as written (no position for synthesized vars)
}

// Func is one module procedure.
type Func struct {
	Name    string
	Decl    *ast.FuncDecl
	Params  []*VarDef
	Results []Type
}

// Program is a parsed module program: the source files of one module.
type Program struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Package string
	Funcs   map[string]*Func
	Structs map[string]*Struct
	// FuncOrder lists function names in declaration order.
	FuncOrder []string
}

// ParseFiles parses named source texts into a Program (without checking).
// Sources map file name to content.
//
// The parse skips go/parser's object resolution: Check resolves every
// identifier against its own scopes, and nothing reads ast.Ident.Obj,
// File.Scope or File.Unresolved, so building them would be wasted work.
// Without DeclarationErrors the resolver reports nothing, so the errors a
// parse returns are the same either way.
func ParseFiles(sources map[string]string) (*Program, error) {
	fset := token.NewFileSet()
	p := &Program{
		Fset:    fset,
		Funcs:   map[string]*Func{},
		Structs: map[string]*Struct{},
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		file, err := parser.ParseFile(fset, name, sources[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if p.Package == "" {
			p.Package = file.Name.Name
		} else if p.Package != file.Name.Name {
			return nil, p.Errorf(file.Name.Pos(), "mixed packages %s and %s", p.Package, file.Name.Name)
		}
		p.Files = append(p.Files, file)
	}
	if err := p.collectDecls(); err != nil {
		return nil, err
	}
	return p, nil
}

// Errorf returns a refusal at pos: a go/scanner error list of one entry.
// That list is the one positioned error of the module path: go/parser
// returns it, Check collects one, and every pass after them (flatten,
// callgraph, liveness, transform) refuses a program with one, so a caller
// reads each refusal's file, line and message with errors.As.
func (p *Program) Errorf(pos token.Pos, format string, args ...any) error {
	return scanner.ErrorList{{Pos: p.Fset.Position(pos), Msg: fmt.Sprintf(format, args...)}}
}

// collectDecls gathers package-level functions and struct types. Struct
// resolution is two-pass so structs may reference each other by name.
func (p *Program) collectDecls() error {
	// Pass 1: struct names.
	type pendingStruct struct {
		spec *ast.TypeSpec
		st   *ast.StructType
	}
	var pending []pendingStruct
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return p.Errorf(ts.Pos(), "type %s: only struct types are allowed", ts.Name.Name)
				}
				if _, dup := p.Structs[ts.Name.Name]; dup {
					return p.Errorf(ts.Pos(), "type %s redeclared", ts.Name.Name)
				}
				p.Structs[ts.Name.Name] = &Struct{Name: ts.Name.Name}
				pending = append(pending, pendingStruct{spec: ts, st: st})
			}
		}
	}
	// Pass 2: struct fields.
	for _, ps := range pending {
		out := p.Structs[ps.spec.Name.Name]
		for _, field := range ps.st.Fields.List {
			ft, err := p.ResolveType(field.Type)
			if err != nil {
				return err
			}
			if len(field.Names) == 0 {
				return p.Errorf(field.Pos(), "struct %s: embedded fields are not allowed", out.Name)
			}
			for _, n := range field.Names {
				out.Fields = append(out.Fields, StructField{Name: n.Name, Type: ft})
			}
		}
	}
	// Pass 3: functions.
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					return p.Errorf(d.Pos(), "method %s: methods are not allowed", d.Name.Name)
				}
				if d.Body == nil {
					return p.Errorf(d.Pos(), "function %s has no body", d.Name.Name)
				}
				if _, dup := p.Funcs[d.Name.Name]; dup {
					return p.Errorf(d.Pos(), "function %s redeclared", d.Name.Name)
				}
				fn := &Func{Name: d.Name.Name, Decl: d}
				if d.Type.TypeParams != nil {
					return p.Errorf(d.Pos(), "function %s: type parameters are not allowed", d.Name.Name)
				}
				for _, field := range d.Type.Params.List {
					pt, err := p.ResolveType(field.Type)
					if err != nil {
						return err
					}
					if len(field.Names) == 0 {
						return p.Errorf(field.Pos(), "function %s: parameters must be named", d.Name.Name)
					}
					for _, n := range field.Names {
						fn.Params = append(fn.Params, &VarDef{Name: n.Name, Type: pt, IsParam: true, Ident: n})
					}
				}
				if d.Type.Results != nil {
					for _, field := range d.Type.Results.List {
						if len(field.Names) > 0 {
							return p.Errorf(field.Pos(), "function %s: named results are not allowed", d.Name.Name)
						}
						rt, err := p.ResolveType(field.Type)
						if err != nil {
							return err
						}
						fn.Results = append(fn.Results, rt)
					}
				}
				p.Funcs[d.Name.Name] = fn
				p.FuncOrder = append(p.FuncOrder, d.Name.Name)
			case *ast.GenDecl:
				switch d.Tok {
				case token.TYPE:
					// handled above
				case token.IMPORT:
					return p.Errorf(d.Pos(), "imports are not allowed in module programs")
				case token.VAR, token.CONST:
					return p.Errorf(d.Pos(), "package-level %s declarations are not allowed", d.Tok)
				}
			}
		}
	}
	if _, ok := p.Funcs["main"]; !ok {
		return scanner.ErrorList{{Msg: "module program has no main function"}}
	}
	return nil
}

// ResolveType converts a type expression to a module-subset Type.
func (p *Program) ResolveType(expr ast.Expr) (Type, error) {
	switch t := expr.(type) {
	case *ast.Ident:
		switch t.Name {
		case "int":
			return IntType, nil
		case "float64":
			return FloatType, nil
		case "bool":
			return BoolType, nil
		case "string":
			return StringType, nil
		default:
			if st, ok := p.Structs[t.Name]; ok {
				return st, nil
			}
			return nil, p.Errorf(t.Pos(), "unknown type %s (module subset: int, float64, bool, string, []T, *T, named structs)", t.Name)
		}
	case *ast.ArrayType:
		if t.Len != nil {
			return nil, p.Errorf(t.Pos(), "fixed-size arrays are not allowed; use slices")
		}
		elem, err := p.ResolveType(t.Elt)
		if err != nil {
			return nil, err
		}
		return Slice{Elem: elem}, nil
	case *ast.StarExpr:
		elem, err := p.ResolveType(t.X)
		if err != nil {
			return nil, err
		}
		if _, nested := elem.(Pointer); nested {
			return nil, p.Errorf(t.Pos(), "pointer-to-pointer types are not allowed")
		}
		return Pointer{Elem: elem}, nil
	default:
		return nil, p.Errorf(expr.Pos(), "unsupported type expression %T", expr)
	}
}
