// Package val implements a front end for the subset of the Val programming
// language (Ackerman & Dennis [1]) used by the paper: scalar expressions,
// let-in, if-then-else, array element selection A[i±k], forall blocks,
// for-iter blocks, and the pipe-structured program form of §4 — a sequence
// of array-defining blocks over declared input arrays.
//
// The concrete grammar:
//
//	program  = { decl } .
//	decl     = "param" IDENT "=" const ";"
//	         | "input" IDENT ":" type "[" const "," const "]" ";"
//	         | "output" IDENT ";"
//	         | IDENT ":" type ":=" expr ";" .
//	type     = "real" | "integer" | "boolean" | "array" "[" type "]" .
//	expr     = forall | foriter | "if" expr "then" expr "else" expr "endif"
//	         | "let" defs "in" expr "endlet" | binary .
//	forall   = "forall" IDENT "in" "[" const "," const "]" defs
//	           "construct" expr "endall" .
//	foriter  = "for" defs "do" expr "endfor" .
//	defs     = { IDENT ":" type ":=" expr ";" } .
//	iter     = "iter" { IDENT ":=" expr [";"] } "enditer" .
//	binary   = the usual Val operators: | & ~ = ~= < <= > >= + - * / .
//	postfix  = IDENT "[" expr "]"          (array element selection)
//	         | IDENT "[" expr ":" expr "]" (array append X[i: P])
//	         | "[" const ":" expr "]"      (array initializer [r: E]) .
//
// Comments run from '%' to end of line, as in the paper's listings.
package val

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokReal
	TokKeyword
	TokPunct
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokInt:
		return "integer literal"
	case TokReal:
		return "real literal"
	case TokKeyword:
		return "keyword"
	case TokPunct:
		return "punctuation"
	default:
		return "invalid token"
	}
}

// Pos is a source position (1-based line and column). int32 fields, exact
// for any source under 2 GiB, keep a Token at 32 bytes.
type Pos struct {
	Line, Col int32
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords of the Val subset.
var keywords = map[string]bool{
	"param": true, "input": true, "output": true,
	"forall": true, "in": true, "construct": true, "endall": true,
	"for": true, "do": true, "iter": true, "enditer": true, "endfor": true,
	"if": true, "then": true, "else": true, "endif": true,
	"let": true, "endlet": true,
	"real": true, "integer": true, "boolean": true, "array": true, "array2": true,
	"true": true, "false": true,
	"min": true, "max": true, "abs": true,
}

// punct lists multi-character punctuation longest-first.
var punct2 = []string{":=", "~=", "<=", ">="}
var punct1 = ":;,[]()=<>+-*/&|~"
