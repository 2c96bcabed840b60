// Package mil implements the module interconnection language of the
// reproduction: the POLYLITH-style configuration specification language used
// in Figure 2 of the paper. A specification describes each module (its
// interfaces, executable source, reconfiguration points and attributes) and
// the application (module instances plus the bindings between their
// interfaces).
//
// The concrete grammar, cleaned up from the paper's figure:
//
//	spec        = { module } .
//	module      = "module" ident "{" { clause } "}" .
//	clause      = ( attrClause | ifaceClause | reconfClause | stateClause
//	              | instClause | bindClause ) [ "::" ] .
//	attrClause  = ident "=" ( string | ident ) .
//	ifaceClause = role "interface" ident { ifaceAttr } .
//	role        = "client" | "server" | "use" | "define" .
//	ifaceAttr   = "pattern" "=" typeSet | "accepts" typeSet | "returns" typeSet .
//	typeSet     = "{" [ typeRef { "," typeRef } ] "}" .
//	typeRef     = [ "^" | "-" ] ident .
//	reconfClause= "reconfiguration" "point" "=" "{" identList "}" .
//	stateClause = "state" ident "=" "{" [ identList ] "}" .
//	instClause  = "instance" ident [ "as" ident ] [ "on" string ] .
//	bindClause  = "bind" string string .
//	identList   = ident { "," ident } .
//
// A module whose body contains instance/bind clauses is an application
// specification (the paper reuses the "module" keyword for both, as in
// "module monitor { instance display ... }").
//
// Comments run from "#" or "//" to end of line. The "::" clause terminator
// of the paper is accepted and optional.
package mil

import (
	"fmt"
	"go/scanner"
	gotoken "go/token"
)

// tokenKind enumerates lexical token categories.
type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokNumber
	tokString
	tokLBrace
	tokRBrace
	tokEquals
	tokComma
	tokColons // "::"
	tokCaret  // "^"
	tokDash   // "-"
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokEquals:
		return "'='"
	case tokComma:
		return "','"
	case tokColons:
		return "'::'"
	case tokCaret:
		return "'^'"
	case tokDash:
		return "'-'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// Pos locates a token or AST node in the input.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

type token struct {
	kind tokenKind
	text string
	pos  Pos
}

// position is p as go/token states it, with no file name: the caller that
// read the specification from a file knows it.
func (p Pos) position() gotoken.Position { return gotoken.Position{Line: p.Line, Column: p.Col} }

// errAt returns a syntax or validation problem at pos: a go/scanner error
// list of one entry. Parse and Validate return what they find as such a
// list, wrapped with this package's name, so errors.As finds every
// problem's line and column.
func errAt(pos Pos, format string, args ...any) error {
	return scanner.ErrorList{{Pos: pos.position(), Msg: fmt.Sprintf(format, args...)}}
}
