package val

import (
	"strings"
	"testing"
	"unsafe"
)

// example1 is the paper's Example 1 (§4) in this front end's program
// syntax, with the manifest m bound by a param declaration.
const example1 = `
param m = 10;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]           % range specification
    P : real :=                  % definition part
      if (i = 0) | (i = m+1) then C[i]
      else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
      endif;
  construct
    B[i]*(P*P)                   % accumulation
  endall;
output A;
`

// example2 is the paper's Example 2 (§4).
const example2 = `
param m = 10;
input A : array[real] [1, m];
input B : array[real] [1, m];
X : array[real] :=
  for
    i : integer := 1;            % loop initialization
    T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]   % definition part
    in
      if i < m then              % loop body
        iter
          T := T[i: P];
          i := i + 1
        enditer
      else T[i: P]
      endif
    endlet
  endfor;
output X;
`

func TestLexBasics(t *testing.T) {
	toks, err := Lex("forall i in [0, m+1] 2.5 2. := ~= <= % comment\nx")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind != TokEOF {
			texts = append(texts, tk.Text)
		}
	}
	want := []string{"forall", "i", "in", "[", "0", ",", "m", "+", "1", "]", "2.5", "2.", ":=", "~=", "<=", "x"}
	if len(texts) != len(want) {
		t.Fatalf("got %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexKinds(t *testing.T) {
	toks, _ := Lex("x 42 4.2 forall")
	kinds := []TokKind{TokIdent, TokInt, TokReal, TokKeyword, TokEOF}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d kind = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, _ := Lex("a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

// TestTokenSize pins a token at 32 bytes: a kind, its text and an int32
// line and column. val.Lex allocates one per token of the source.
func TestTokenSize(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got != 32 {
		t.Errorf("Token is %d bytes, want 32", got)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("a # b"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := Lex("1e+"); err == nil {
		t.Error("malformed exponent accepted")
	}
}

func TestLexExponent(t *testing.T) {
	toks, err := Lex("1e3 2.5E-2")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokReal || toks[0].Text != "1e3" {
		t.Errorf("token 0: %v", toks[0])
	}
	if toks[1].Kind != TokReal || toks[1].Text != "2.5E-2" {
		t.Errorf("token 1: %v", toks[1])
	}
}

func TestParseExample1(t *testing.T) {
	prog, err := Parse(example1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Decls) != 5 {
		t.Fatalf("%d decls, want 5", len(prog.Decls))
	}
	blk := prog.Decls[3]
	if blk.Kind != DeclBlock || blk.Name != "A" {
		t.Fatalf("decl 3 = %v %q", blk.Kind, blk.Name)
	}
	fa, ok := blk.Init.(*Forall)
	if !ok {
		t.Fatalf("block body is %T, want *Forall", blk.Init)
	}
	if fa.IndexVar != "i" || len(fa.Defs) != 1 || fa.Defs[0].Name != "P" {
		t.Errorf("forall structure wrong: %v", fa)
	}
	if _, ok := fa.Defs[0].Init.(*If); !ok {
		t.Errorf("P definition is %T, want *If", fa.Defs[0].Init)
	}
}

func TestParseExample2(t *testing.T) {
	prog, err := Parse(example2)
	if err != nil {
		t.Fatal(err)
	}
	blk := prog.Decls[3]
	fi, ok := blk.Init.(*ForIter)
	if !ok {
		t.Fatalf("block body is %T, want *ForIter", blk.Init)
	}
	if len(fi.Inits) != 2 || fi.Inits[0].Name != "i" || fi.Inits[1].Name != "T" {
		t.Errorf("inits wrong: %v", fi.Inits)
	}
	if _, ok := fi.Inits[1].Init.(*ArrayInit); !ok {
		t.Errorf("T init is %T, want *ArrayInit", fi.Inits[1].Init)
	}
	let, ok := fi.Body.(*Let)
	if !ok {
		t.Fatalf("body is %T, want *Let", fi.Body)
	}
	iff, ok := let.Body.(*If)
	if !ok {
		t.Fatalf("let body is %T, want *If", let.Body)
	}
	it, ok := iff.Then.(*Iter)
	if !ok {
		t.Fatalf("then arm is %T, want *Iter", iff.Then)
	}
	if len(it.Assigns) != 2 {
		t.Errorf("%d iter assigns, want 2", len(it.Assigns))
	}
	if _, ok := it.Assigns[0].Val.(*Append); !ok {
		t.Errorf("T rebinding is %T, want *Append", it.Assigns[0].Val)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * c < d & e | f")
	if err != nil {
		t.Fatal(err)
	}
	// ((((a + (b*c)) < d) & e) | f)
	want := "((((a + (b * c)) < d) & e) | f)"
	if e.String() != want {
		t.Errorf("got %s, want %s", e, want)
	}
}

func TestParseUnary(t *testing.T) {
	e, err := ParseExpr("-a * ~b")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "((-a) * (~b))" {
		t.Errorf("got %s", e)
	}
}

func TestParseMinMaxAbs(t *testing.T) {
	e, err := ParseExpr("min(a, max(b, 1)) + abs(c)")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(min(a, max(b, 1)) + abs(c))" {
		t.Errorf("got %s", e)
	}
}

func TestParseIndexForms(t *testing.T) {
	e, err := ParseExpr("A[i-1]")
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := e.(*Index)
	if !ok || ix.Array != "A" {
		t.Fatalf("got %T %s", e, e)
	}
	e2, err := ParseExpr("T[i: P]")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.(*Append); !ok {
		t.Fatalf("got %T", e2)
	}
	e3, err := ParseExpr("[0: 0.]")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e3.(*ArrayInit); !ok {
		t.Fatalf("got %T", e3)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                     // empty program
		"A : real := ;",                        // missing expr
		"if a then b endif",                    // missing else
		"forall i in [0 1] construct i endall", // missing comma
		"let in x endlet",                      // no defs
		"for do x endfor",                      // no loop vars
		"A : array[array[real]] := B;",         // nested arrays
		"x : real := iter enditer;",            // empty iter
		"(a + b",                               // unclosed paren
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	if _, err := ParseExpr("a b"); err == nil {
		t.Error("trailing input accepted")
	}
}

func TestCheckExample1(t *testing.T) {
	prog, err := Parse(example1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if c.Params["m"] != 10 {
		t.Errorf("m = %d", c.Params["m"])
	}
	in, ok := c.Input("C")
	if !ok || in.Lo != 0 || in.Hi != 11 || in.Len() != 12 {
		t.Errorf("input C: %+v", in)
	}
	blk, ok := c.Block("A")
	if !ok {
		t.Fatal("block A missing")
	}
	if blk.Ty != ArrayOf(KindReal) {
		t.Errorf("A type = %s", blk.Ty)
	}
	if len(blk.Consumes) != 2 || blk.Consumes[0] != "C" || blk.Consumes[1] != "B" {
		t.Errorf("A consumes %v", blk.Consumes)
	}
	if len(c.Outputs) != 1 || c.Outputs[0] != "A" {
		t.Errorf("outputs %v", c.Outputs)
	}
	// annotation: the forall expression's type
	if blk.Expr.Type() != ArrayOf(KindReal) {
		t.Errorf("forall annotated %s", blk.Expr.Type())
	}
}

func TestCheckExample2(t *testing.T) {
	prog, err := Parse(example2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	blk, _ := c.Block("X")
	if blk.Ty != ArrayOf(KindReal) {
		t.Errorf("X type = %s", blk.Ty)
	}
	if len(blk.Consumes) != 2 {
		t.Errorf("X consumes %v", blk.Consumes)
	}
}

func TestCheckPipeline(t *testing.T) {
	// Example 1 feeding Example 2, the composition of Fig 3.
	src := `
param m = 8;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i]*(P*P)
  endall;
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
output X;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := c.Block("X")
	found := false
	for _, u := range x.Consumes {
		if u == "A" {
			found = true
		}
	}
	if !found {
		t.Errorf("X should consume A: %v", x.Consumes)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined", `A : array[real] := forall i in [0,3] construct B[i] endall; output A;`, "undefined"},
		{"nonconst range", `input B : array[real] [0, 3]; A : array[real] := forall i in [0, B[0]] construct B[i] endall; output A;`, "constant"},
		{"bool arith", `A : array[real] := forall i in [0,3] construct true + 1 endall; output A;`, "numeric"},
		{"cond not bool", `A : array[real] := forall i in [0,3] construct if i then 1. else 2. endif endall; output A;`, "boolean"},
		{"subscript", `input B : array[real] [0,3]; A : array[real] := forall i in [0,3] construct B[1.5] endall; output A;`, "subscript"},
		{"no output", `param m = 3;`, "no outputs"},
		{"output scalar", `param m = 3; output m;`, "not defined"},
		{"dup decl", `param m = 3; param m = 4; output m;`, "already declared"},
		{"block type", `A : array[integer] := forall i in [0,3] construct 1. endall; output A;`, "declared"},
		{"iter outside loop", `A : array[real] := forall i in [0,3] construct if true then iter i := 1 enditer else 1. endif endall; output A;`, "for-iter"},
		{"iter bad target", `A : array[real] := for i : integer := 0 do if i < 3 then iter j := 1 enditer else [0: 1.] endif endfor; output A;`, "not a loop variable"},
		{"bare iter body", `A : array[real] := for i : integer := 0 do iter i := i + 1 enditer endfor; output A;`, "bare iter"},
		{"input scalar", `input B : real [0, 3]; output B;`, "must be an array"},
		{"empty range", `input B : array[real] [3, 0]; output B;`, "empty range"},
		{"and needs bool", `A : array[real] := forall i in [0,3] construct if 1 & true then 1. else 2. endif endall; output A;`, "boolean"},
		{"index nonarray", `param k = 2; A : array[real] := forall i in [0,3] construct k[i] endall; output A;`, "not an array"},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err == nil {
			_, err = Check(prog)
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCheckPromotion(t *testing.T) {
	src := `
A : array[real] :=
  forall i in [0, 3]
    P : real := i;   % integer widened to declared real
  construct P * 2
  endall;
output A;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	blk, _ := c.Block("A")
	if blk.Ty != ArrayOf(KindReal) {
		t.Errorf("type %s", blk.Ty)
	}
}

func TestEvalConst(t *testing.T) {
	params := map[string]int64{"m": 10}
	cases := []struct {
		src  string
		want int64
	}{
		{"3", 3}, {"m+1", 11}, {"2*m-5", 15}, {"-m", -10}, {"m/3", 3},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatal(err)
		}
		v, err := EvalConst(e, params)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
		}
		if v != c.want {
			t.Errorf("%s = %d, want %d", c.src, v, c.want)
		}
	}
	for _, bad := range []string{"x", "m/0", "1.5", "m < 2", "A[1]"} {
		e, err := ParseExpr(bad)
		if err != nil {
			continue
		}
		if _, err := EvalConst(e, params); err == nil {
			t.Errorf("EvalConst accepted %q", bad)
		}
	}
}

func TestProgramString(t *testing.T) {
	prog, err := Parse(example1)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.String()
	for _, want := range []string{"param m", "input B", "forall i in", "output A"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q", want)
		}
	}
	// round-trip: the printed program re-parses and re-checks
	prog2, err := Parse(s)
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, s)
	}
	if _, err := Check(prog2); err != nil {
		t.Fatalf("round-trip check: %v", err)
	}
}

func TestTypeString(t *testing.T) {
	if Scalar(KindReal).String() != "real" {
		t.Error("scalar string")
	}
	if ArrayOf(KindInt).String() != "array[integer]" {
		t.Error("array string")
	}
	if KindInvalid.String() != "invalid" {
		t.Error("invalid kind string")
	}
}

func TestExprStrings(t *testing.T) {
	for _, src := range []string{
		"if a then 1 else 2 endif",
		"let x : real := 1. in x endlet",
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if e.String() == "" {
			t.Errorf("%q: empty String()", src)
		}
	}
}
