package mil

import (
	"fmt"
	"strconv"
)

// Parse parses a configuration specification. Its error wraps a
// scanner.ErrorList holding the first problem's line and column.
func Parse(src string) (*Spec, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, fmt.Errorf("mil: %w", err)
	}
	p := &parser{toks: toks}
	spec := &Spec{}
	for p.peek().kind != tokEOF {
		if err := p.parseModule(spec); err != nil {
			return nil, fmt.Errorf("mil: %w", err)
		}
	}
	return spec, nil
}

// ParseAndValidate parses and then validates the specification.
func ParseAndValidate(src string) (*Spec, error) {
	spec, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Validate(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

type parser struct {
	toks []token
	off  int
}

func (p *parser) peek() token { return p.toks[p.off] }

func (p *parser) next() token {
	t := p.toks[p.off]
	if t.kind != tokEOF {
		p.off++
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, errAt(t.pos, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) (token, error) {
	t := p.next()
	if t.kind != tokIdent || t.text != kw {
		return t, errAt(t.pos, "expected %q, found %q", kw, t.text)
	}
	return t, nil
}

// acceptSeparator consumes an optional clause terminator ("::" or ";").
func (p *parser) acceptSeparator() {
	for p.peek().kind == tokColons {
		p.next()
	}
}

// parseModule parses one "module name { ... }" block and appends it to spec
// as either a module specification or an application specification,
// depending on the clauses it contains.
func (p *parser) parseModule(spec *Spec) error {
	kw, err := p.expectKeyword("module")
	if err != nil {
		return err
	}
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}

	mod := &Module{Pos: kw.pos, Name: nameTok.text, Attrs: map[string]string{}}
	app := &Application{Pos: kw.pos, Name: nameTok.text}

	for {
		p.acceptSeparator()
		t := p.peek()
		if t.kind == tokRBrace {
			p.next()
			break
		}
		if t.kind == tokEOF {
			return errAt(t.pos, "unexpected end of input inside module %s", mod.Name)
		}
		if t.kind != tokIdent {
			return errAt(t.pos, "expected clause keyword, found %s %q", t.kind, t.text)
		}
		switch t.text {
		case "client", "server", "define", "use":
			ifc, err := p.parseInterface()
			if err != nil {
				return err
			}
			mod.Interfaces = append(mod.Interfaces, ifc)
		case "reconfiguration":
			pts, err := p.parseReconfigPoints()
			if err != nil {
				return err
			}
			mod.ReconfigPoints = append(mod.ReconfigPoints, pts...)
		case "state":
			if err := p.parseStateClause(mod); err != nil {
				return err
			}
		case "instance":
			inst, err := p.parseInstance()
			if err != nil {
				return err
			}
			app.Instances = append(app.Instances, inst)
		case "bind":
			b, err := p.parseBind()
			if err != nil {
				return err
			}
			app.Binds = append(app.Binds, b)
		default:
			if err := p.parseAttr(mod); err != nil {
				return err
			}
		}
	}

	isApp := len(app.Instances) > 0 || len(app.Binds) > 0
	hasModuleClauses := len(mod.Interfaces) > 0 || len(mod.ReconfigPoints) > 0 ||
		mod.Source != "" || len(mod.Attrs) > 0 || mod.Machine != ""
	if isApp && hasModuleClauses {
		return errAt(mod.Pos, "module %s mixes module clauses with instance/bind clauses", mod.Name)
	}
	if isApp {
		spec.Applications = append(spec.Applications, app)
	} else {
		spec.Modules = append(spec.Modules, mod)
	}
	return nil
}

func (p *parser) parseInterface() (*Interface, error) {
	roleTok := p.next()
	var role Role
	switch roleTok.text {
	case "client":
		role = RoleClient
	case "server":
		role = RoleServer
	case "define":
		role = RoleDefine
	case "use":
		role = RoleUse
	}
	if _, err := p.expectKeyword("interface"); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	ifc := &Interface{Pos: roleTok.pos, Name: nameTok.text, Role: role}
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return ifc, nil
		}
		switch t.text {
		case "pattern":
			p.next()
			if _, err := p.expect(tokEquals); err != nil {
				return nil, err
			}
			if ifc.Pattern, err = p.parseTypeSet(); err != nil {
				return nil, err
			}
		case "accepts":
			p.next()
			// The paper writes both "accepts{...}" and "accepts = {...}".
			if p.peek().kind == tokEquals {
				p.next()
			}
			if ifc.Accepts, err = p.parseTypeSet(); err != nil {
				return nil, err
			}
		case "returns":
			p.next()
			if p.peek().kind == tokEquals {
				p.next()
			}
			if ifc.Returns, err = p.parseTypeSet(); err != nil {
				return nil, err
			}
		default:
			return ifc, nil
		}
	}
}

func (p *parser) parseTypeSet() ([]TypeRef, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	var refs []TypeRef
	for {
		t := p.peek()
		switch t.kind {
		case tokRBrace:
			p.next()
			return refs, nil
		case tokComma:
			p.next()
		case tokCaret, tokDash:
			p.next()
			nameTok, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			dir := '^'
			if t.kind == tokDash {
				dir = '-'
			}
			refs = append(refs, TypeRef{Dir: dir, Name: nameTok.text})
		case tokIdent:
			p.next()
			refs = append(refs, TypeRef{Name: t.text})
		default:
			return nil, errAt(t.pos, "expected type name or '}', found %s %q", t.kind, t.text)
		}
	}
}

func (p *parser) parseReconfigPoints() ([]ReconfigPoint, error) {
	kw := p.next() // "reconfiguration"
	if _, err := p.expectKeyword("point"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEquals); err != nil {
		return nil, err
	}
	labels, err := p.parseIdentSet()
	if err != nil {
		return nil, err
	}
	if len(labels) == 0 {
		return nil, errAt(kw.pos, "reconfiguration point set is empty")
	}
	pts := make([]ReconfigPoint, len(labels))
	for i, l := range labels {
		pts[i] = ReconfigPoint{Pos: kw.pos, Label: l}
	}
	return pts, nil
}

// parseStateClause handles "state R = { v1, v2 }", attaching the variable
// list to the named reconfiguration point (which may be declared before or
// after; Validate checks resolution).
func (p *parser) parseStateClause(mod *Module) error {
	kw := p.next() // "state"
	labelTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokEquals); err != nil {
		return err
	}
	vars, err := p.parseIdentSet()
	if err != nil {
		return err
	}
	if pt := mod.Point(labelTok.text); pt != nil {
		pt.Vars = vars
		return nil
	}
	// Forward state clause: remember it as a point with vars; Validate
	// flags duplicates.
	mod.ReconfigPoints = append(mod.ReconfigPoints, ReconfigPoint{Pos: kw.pos, Label: labelTok.text, Vars: vars})
	return nil
}

func (p *parser) parseIdentSet() ([]string, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	var names []string
	for {
		t := p.peek()
		switch t.kind {
		case tokRBrace:
			p.next()
			return names, nil
		case tokComma:
			p.next()
		case tokIdent:
			p.next()
			names = append(names, t.text)
		default:
			return nil, errAt(t.pos, "expected identifier or '}', found %s %q", t.kind, t.text)
		}
	}
}

func (p *parser) parseAttr(mod *Module) error {
	keyTok := p.next()
	if _, err := p.expect(tokEquals); err != nil {
		return err
	}
	valTok := p.next()
	if valTok.kind != tokString && valTok.kind != tokIdent {
		return errAt(valTok.pos, "expected attribute value, found %s %q", valTok.kind, valTok.text)
	}
	switch keyTok.text {
	case "source":
		if mod.Source != "" {
			return errAt(keyTok.pos, "duplicate source attribute")
		}
		mod.Source = valTok.text
	case "machine":
		if mod.Machine != "" {
			return errAt(keyTok.pos, "duplicate machine attribute")
		}
		mod.Machine = valTok.text
	default:
		if _, dup := mod.Attrs[keyTok.text]; dup {
			return errAt(keyTok.pos, "duplicate attribute %q", keyTok.text)
		}
		mod.Attrs[keyTok.text] = valTok.text
	}
	return nil
}

func (p *parser) parseInstance() (*Instance, error) {
	kw := p.next() // "instance"
	modTok, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Pos: kw.pos, Name: modTok.text, Module: modTok.text}
	for p.peek().kind == tokIdent {
		switch p.peek().text {
		case "as":
			p.next()
			nameTok, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			inst.Name = nameTok.text
		case "on":
			p.next()
			mTok := p.next()
			if mTok.kind != tokString && mTok.kind != tokIdent {
				return nil, errAt(mTok.pos, "expected machine name, found %q", mTok.text)
			}
			inst.Machine = mTok.text
		case "replicas":
			p.next()
			nTok, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(nTok.text)
			if err != nil {
				return nil, errAt(nTok.pos, "bad replica count %q", nTok.text)
			}
			inst.Replicas = n
		case "policy":
			p.next()
			polTok, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			inst.Policy = polTok.text
		default:
			return inst, nil
		}
	}
	return inst, nil
}

func (p *parser) parseBind() (*Bind, error) {
	kw := p.next() // "bind"
	fromTok, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	toTok, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	from, err := parseEndpoint(fromTok)
	if err != nil {
		return nil, err
	}
	to, err := parseEndpoint(toTok)
	if err != nil {
		return nil, err
	}
	return &Bind{Pos: kw.pos, From: from, To: to}, nil
}
