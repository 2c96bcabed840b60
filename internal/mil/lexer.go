package mil

import (
	"strings"
	"unicode"
)

type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			l.skipLine()
		case c == '/' && l.peek2() == '/':
			l.skipLine()
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

func (l *lexer) skipLine() {
	for l.off < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || c == '.' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token. Lexing is infallible except for unterminated
// strings and stray bytes, which are reported via an error token text.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	c := l.peek()
	switch {
	case c == '{':
		l.advance()
		return token{kind: tokLBrace, text: "{", pos: pos}, nil
	case c == '}':
		l.advance()
		return token{kind: tokRBrace, text: "}", pos: pos}, nil
	case c == '=':
		l.advance()
		return token{kind: tokEquals, text: "=", pos: pos}, nil
	case c == ',':
		l.advance()
		return token{kind: tokComma, text: ",", pos: pos}, nil
	case c == '^':
		l.advance()
		return token{kind: tokCaret, text: "^", pos: pos}, nil
	case c == '-':
		l.advance()
		return token{kind: tokDash, text: "-", pos: pos}, nil
	case c == ';':
		// Some Polylith dialects terminate clauses with ';'. Treat it
		// like the paper's "::" separator.
		l.advance()
		return token{kind: tokColons, text: ";", pos: pos}, nil
	case c == ':':
		if l.peek2() != ':' {
			return token{}, errAt(pos, "expected '::', found lone ':'")
		}
		l.advance()
		l.advance()
		return token{kind: tokColons, text: "::", pos: pos}, nil
	case c == '"':
		return l.lexString(pos)
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[start:l.off], pos: pos}, nil
	case unicode.IsDigit(rune(c)):
		start := l.off
		for l.off < len(l.src) && unicode.IsDigit(rune(l.peek())) {
			l.advance()
		}
		return token{kind: tokNumber, text: l.src[start:l.off], pos: pos}, nil
	default:
		return token{}, errAt(pos, "unexpected character %q", string(rune(c)))
	}
}

func (l *lexer) lexString(pos Pos) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for l.off < len(l.src) {
		c := l.advance()
		switch c {
		case '"':
			return token{kind: tokString, text: b.String(), pos: pos}, nil
		case '\\':
			if l.off >= len(l.src) {
				return token{}, errAt(pos, "unterminated string")
			}
			esc := l.advance()
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(esc)
			default:
				return token{}, errAt(pos, "unknown escape \\%s in string", string(rune(esc)))
			}
		case '\n':
			return token{}, errAt(pos, "newline in string")
		default:
			b.WriteByte(c)
		}
	}
	return token{}, errAt(pos, "unterminated string")
}

// lexAll tokenizes the whole input (used by the parser, exposed for tests).
// The token slice is sized once from the source: specifications run five to
// six bytes per token (the Monitor and the benchmark's pipeline do), so a
// token per four bytes is rarely outgrown.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	toks := make([]token, 0, len(src)/4+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
