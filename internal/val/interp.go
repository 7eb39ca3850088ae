package val

import (
	"fmt"

	"staticpipe/internal/value"
)

// ArrayVal is an array value with an explicit lower index bound, as Val
// arrays carry their index range. Two-dimensional arrays (W > 0) store
// their elements row-major with second-dimension range [Lo2, Lo2+W−1].
type ArrayVal struct {
	Lo    int64
	Elems []value.Value
	// Lo2 and W describe the second dimension of an array2 value; W == 0
	// means one-dimensional.
	Lo2 int64
	W   int

	// tail, on arrays the interpreter's appends built, counts the elements
	// of Elems' backing array that some value already holds; every value
	// on that backing array shares it. An append to a value whose length
	// equals it may write the next element in place (see appendElem).
	tail *int
}

// Hi returns the highest index of a one-dimensional array, or the highest
// first-dimension index of a two-dimensional one.
func (a *ArrayVal) Hi() int64 {
	if a.W > 0 {
		return a.Lo + int64(len(a.Elems)/a.W) - 1
	}
	return a.Lo + int64(len(a.Elems)) - 1
}

// At returns the element at index i of a one-dimensional array.
func (a *ArrayVal) At(i int64) (value.Value, error) {
	if a.W > 0 {
		return value.Value{}, fmt.Errorf("val: single subscript on a two-dimensional array")
	}
	if i < a.Lo || i > a.Hi() {
		return value.Value{}, fmt.Errorf("val: index %d outside [%d, %d]", i, a.Lo, a.Hi())
	}
	return a.Elems[i-a.Lo], nil
}

// At2 returns element (i, j) of a two-dimensional array.
func (a *ArrayVal) At2(i, j int64) (value.Value, error) {
	if a.W == 0 {
		return value.Value{}, fmt.Errorf("val: two subscripts on a one-dimensional array")
	}
	hi2 := a.Lo2 + int64(a.W) - 1
	if i < a.Lo || i > a.Hi() || j < a.Lo2 || j > hi2 {
		return value.Value{}, fmt.Errorf("val: index (%d, %d) outside [%d, %d]×[%d, %d]",
			i, j, a.Lo, a.Hi(), a.Lo2, hi2)
	}
	return a.Elems[(i-a.Lo)*int64(a.W)+(j-a.Lo2)], nil
}

// maxIterations bounds for-iter evaluation; the paper's loops have manifest
// trip counts, so hitting this indicates a non-terminating program. It is a
// variable so tests can exercise the guard cheaply.
var maxIterations = 50_000_000

// Interp evaluates a checked program directly over the AST — the reference
// semantics that compiled instruction graphs are validated against. The
// inputs map must provide one stream per declared input, with exactly the
// declared number of elements (element j corresponds to index Lo+j).
// It returns the output arrays by name.
func Interp(c *Checked, inputs map[string][]value.Value) (map[string]*ArrayVal, error) {
	env := map[string]any{}
	for _, in := range c.Inputs {
		vs, ok := inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("val: missing input %s", in.Name)
		}
		if len(vs) != in.Len() {
			return nil, fmt.Errorf("val: input %s has %d elements, declared range [%d, %d] needs %d",
				in.Name, len(vs), in.Lo, in.Hi, in.Len())
		}
		a := &ArrayVal{Lo: in.Lo, Elems: vs}
		if in.Ty.TwoD {
			a.Lo2 = in.Lo2
			a.W = int(in.Hi2 - in.Lo2 + 1)
		}
		env[in.Name] = a
	}
	for name, v := range c.Params {
		env[name] = value.I(v)
	}
	it := &interp{c: c}
	for _, b := range c.Blocks {
		v, err := it.eval(env, b.Expr)
		if err != nil {
			return nil, fmt.Errorf("val: block %s: %w", b.Name, err)
		}
		env[b.Name] = v
	}
	out := map[string]*ArrayVal{}
	for _, name := range c.Outputs {
		a, ok := env[name].(*ArrayVal)
		if !ok {
			return nil, fmt.Errorf("val: output %s is not an array value", name)
		}
		n := len(a.Elems)
		out[name] = &ArrayVal{Lo: a.Lo, Elems: a.Elems[:n:n], Lo2: a.Lo2, W: a.W}
	}
	return out, nil
}

type interp struct {
	c *Checked
}

// iterSignal is the pseudo-value produced by an iter clause: the new loop
// variable bindings.
type iterSignal struct {
	bindings map[string]any
}

func (it *interp) eval(env map[string]any, e Expr) (any, error) {
	switch x := e.(type) {
	case *IntLit:
		return value.I(x.Val), nil
	case *RealLit:
		return value.R(x.F), nil
	case *BoolLit:
		return value.B(x.Val), nil

	case *Name:
		v, ok := env[x.Ident]
		if !ok {
			return nil, fmt.Errorf("%s: unbound name %s", x.Pos(), x.Ident)
		}
		return v, nil

	case *Unary:
		v, err := it.scalar(env, x.E)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case OpNeg:
			return value.Neg(v), nil
		case OpAbs:
			return value.Abs(v), nil
		case OpNot:
			return value.Not(v), nil
		}
		return nil, fmt.Errorf("%s: bad unary op %s", x.Pos(), x.Op)

	case *Binary:
		l, err := it.scalar(env, x.L)
		if err != nil {
			return nil, err
		}
		r, err := it.scalar(env, x.R)
		if err != nil {
			return nil, err
		}
		return ApplyBinary(x.Op, l, r)

	case *If:
		cond, err := it.scalar(env, x.Cond)
		if err != nil {
			return nil, err
		}
		if cond.AsBool() {
			return it.eval(env, x.Then)
		}
		return it.eval(env, x.Else)

	case *Let:
		inner := cloneEnv(env)
		for _, d := range x.Defs {
			v, err := it.eval(inner, d.Init)
			if err != nil {
				return nil, err
			}
			inner[d.Name] = widen(v, d)
		}
		return it.eval(inner, x.Body)

	case *Index:
		arr, err := it.array(env, x.Array, x.Pos())
		if err != nil {
			return nil, err
		}
		sub, err := it.scalar(env, x.Sub)
		if err != nil {
			return nil, err
		}
		if x.Sub2 != nil {
			sub2, err := it.scalar(env, x.Sub2)
			if err != nil {
				return nil, err
			}
			return arr.At2(sub.AsInt(), sub2.AsInt())
		}
		return arr.At(sub.AsInt())

	case *ArrayInit:
		at, err := EvalConst(x.At, it.c.Params)
		if err != nil {
			return nil, err
		}
		v, err := it.scalar(env, x.Val)
		if err != nil {
			return nil, err
		}
		return &ArrayVal{Lo: at, Elems: []value.Value{v}}, nil

	case *Append:
		arr, err := it.array(env, x.Array, x.Pos())
		if err != nil {
			return nil, err
		}
		at, err := it.scalar(env, x.At)
		if err != nil {
			return nil, err
		}
		v, err := it.scalar(env, x.Val)
		if err != nil {
			return nil, err
		}
		i := at.AsInt()
		switch {
		case i == arr.Hi()+1:
			return appendElem(arr, v), nil
		case i >= arr.Lo && i <= arr.Hi():
			elems := append([]value.Value(nil), arr.Elems...)
			elems[i-arr.Lo] = v
			return &ArrayVal{Lo: arr.Lo, Elems: elems}, nil
		default:
			return nil, fmt.Errorf("%s: append at %d not adjacent to [%d, %d]", x.Pos(), i, arr.Lo, arr.Hi())
		}

	case *Forall:
		lo, err := EvalConst(x.Lo, it.c.Params)
		if err != nil {
			return nil, err
		}
		hi, err := EvalConst(x.Hi, it.c.Params)
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, fmt.Errorf("%s: empty forall range [%d, %d]", x.Pos(), lo, hi)
		}
		lo2, hi2 := int64(0), int64(0)
		if x.TwoD() {
			if lo2, err = EvalConst(x.Lo2, it.c.Params); err != nil {
				return nil, err
			}
			if hi2, err = EvalConst(x.Hi2, it.c.Params); err != nil {
				return nil, err
			}
			if hi2 < lo2 {
				return nil, fmt.Errorf("%s: empty forall range [%d, %d]", x.Pos(), lo2, hi2)
			}
		}
		out := &ArrayVal{Lo: lo}
		if x.TwoD() {
			out.Lo2 = lo2
			out.W = int(hi2 - lo2 + 1)
		}
		evalBody := func(i, j int64) error {
			inner := cloneEnv(env)
			inner[x.IndexVar] = value.I(i)
			if x.TwoD() {
				inner[x.IndexVar2] = value.I(j)
			}
			for _, d := range x.Defs {
				v, err := it.eval(inner, d.Init)
				if err != nil {
					return err
				}
				inner[d.Name] = widen(v, d)
			}
			v, err := it.scalar(inner, x.Accum)
			if err != nil {
				return err
			}
			out.Elems = append(out.Elems, v)
			return nil
		}
		for i := lo; i <= hi; i++ {
			if !x.TwoD() {
				if err := evalBody(i, 0); err != nil {
					return nil, err
				}
				continue
			}
			for j := lo2; j <= hi2; j++ {
				if err := evalBody(i, j); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case *ForIter:
		inner := cloneEnv(env)
		var loopNames []string
		for _, d := range x.Inits {
			v, err := it.eval(inner, d.Init)
			if err != nil {
				return nil, err
			}
			inner[d.Name] = widen(v, d)
			loopNames = append(loopNames, d.Name)
		}
		for iter := 0; iter < maxIterations; iter++ {
			v, err := it.eval(inner, x.Body)
			if err != nil {
				return nil, err
			}
			sig, again := v.(iterSignal)
			if !again {
				return v, nil
			}
			for _, name := range loopNames {
				if nv, ok := sig.bindings[name]; ok {
					inner[name] = nv
				}
			}
		}
		return nil, fmt.Errorf("%s: for-iter exceeded %d iterations", x.Pos(), maxIterations)

	case *Iter:
		// Simultaneous rebinding: all right-hand sides see the old values.
		bind := map[string]any{}
		for _, a := range x.Assigns {
			v, err := it.eval(env, a.Val)
			if err != nil {
				return nil, err
			}
			bind[a.Name] = v
		}
		return iterSignal{bindings: bind}, nil

	default:
		return nil, fmt.Errorf("%s: cannot evaluate %T", e.Pos(), e)
	}
}

// appendElem returns arr extended by v at its high end. A for-iter's
// T[i: v] appends to the array the previous iteration built, so when arr
// is the longest value on its backing array and room is left, v is
// written in place and the new value shares the backing array and its
// tail counter; arr itself still reads its own len(arr.Elems) elements.
// Otherwise the elements move to a new backing array of twice the length,
// so n appends copy O(n) values in all.
func appendElem(arr *ArrayVal, v value.Value) *ArrayVal {
	n := len(arr.Elems)
	if arr.tail != nil && *arr.tail == n && n < cap(arr.Elems) {
		*arr.tail = n + 1
		return &ArrayVal{Lo: arr.Lo, Elems: append(arr.Elems, v), tail: arr.tail}
	}
	elems := make([]value.Value, n+1, 2*(n+1))
	copy(elems, arr.Elems)
	elems[n] = v
	tail := n + 1
	return &ArrayVal{Lo: arr.Lo, Elems: elems, tail: &tail}
}

// scalar evaluates e and requires a scalar result.
func (it *interp) scalar(env map[string]any, e Expr) (value.Value, error) {
	v, err := it.eval(env, e)
	if err != nil {
		return value.Value{}, err
	}
	sv, ok := v.(value.Value)
	if !ok {
		return value.Value{}, fmt.Errorf("%s: expected a scalar value", e.Pos())
	}
	return sv, nil
}

// array resolves name to an array value.
func (it *interp) array(env map[string]any, name string, p Pos) (*ArrayVal, error) {
	v, ok := env[name]
	if !ok {
		return nil, fmt.Errorf("%s: unbound array %s", p, name)
	}
	arr, ok := v.(*ArrayVal)
	if !ok {
		return nil, fmt.Errorf("%s: %s is not an array", p, name)
	}
	return arr, nil
}

// widen applies the declared-real-from-integer widening the checker allows.
func widen(v any, d Def) any {
	sv, ok := v.(value.Value)
	if ok && d.TySet && !d.Ty.Array && d.Ty.Elem == KindReal && sv.Kind() == value.Int {
		return value.R(float64(sv.AsInt()))
	}
	return v
}

func cloneEnv(env map[string]any) map[string]any {
	out := make(map[string]any, len(env)+4)
	for k, v := range env {
		out[k] = v
	}
	return out
}

// ApplyBinary evaluates one Val binary operator on scalar values; it is
// shared by the reference interpreter and the compiler's constant folder.
func ApplyBinary(op Op, l, r value.Value) (value.Value, error) {
	switch op {
	case OpAdd:
		return value.Add(l, r), nil
	case OpSub:
		return value.Sub(l, r), nil
	case OpMul:
		return value.Mul(l, r), nil
	case OpDiv:
		return value.Div(l, r), nil
	case OpMin:
		return value.Min(l, r), nil
	case OpMax:
		return value.Max(l, r), nil
	case OpLT:
		return value.LT(l, r), nil
	case OpLE:
		return value.LE(l, r), nil
	case OpGT:
		return value.GT(l, r), nil
	case OpGE:
		return value.GE(l, r), nil
	case OpEQ:
		return value.EQ(l, r), nil
	case OpNE:
		return value.NE(l, r), nil
	case OpAnd:
		return value.And(l, r), nil
	case OpOr:
		return value.Or(l, r), nil
	default:
		return value.Value{}, fmt.Errorf("bad binary operator %s", op)
	}
}
