package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"staticpipe/internal/progs"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// program is one Val source with the inputs a run binds and, for the
// paper's programs, a plain-Go evaluation of its formulas.
type program struct {
	name    string
	src     string
	primary string // output whose arrival rate the II check reads
	inputs  map[string][]value.Value
	chk     *val.Checked
	// formula evaluates the program's output arrays in plain Go, indexed
	// from each array's low bound; nil for generated programs.
	formula func(in map[string][]float64) map[string][]float64
	// conditional marks a data-dependent conditional, which the II check
	// holds only to the mcm.PredictII bound.
	conditional bool
}

// iterReconverge is a 3-point stencil, a companion-scheme for-iter over
// it, and a forall reading both the for-iter's output and the stencil.
// Balancing predicts II = 2, but the run settles above it: the known
// fault the stream-long workload keeps visible.
const iterReconverge = `
param m = %d;
input C : array[real] [0, m+1];
input B : array[real] [1, m];
S : array[real] :=
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall;
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then iter T := T[i: 0.25*T[i-1] + S[i]]; i := i + 1 enditer
    else T[i: 0.25*T[i-1] + S[i]] endif
  endfor;
Y : array[real] :=
  forall i in [1, m]
  construct X[i] * S[i] + B[i]
  endall;
output Y;
`

// paperPrograms returns the paper's programs at n elements plus
// iter-reconverge, in a fixed order. Sources come from internal/progs;
// inputs are left for bindInputs.
func paperPrograms(n int) []program {
	return []program{
		{name: "fig2", src: progs.Fig2(n).Source, primary: "Y", formula: fig2Formula},
		{name: "fig5", src: progs.Fig5(n).Source, primary: "Y", formula: fig5Formula, conditional: true},
		{name: "example1", src: progs.Example1(n).Source, primary: "A", formula: example1Formula},
		{name: "example2", src: progs.Example2(n).Source, primary: "X", formula: example2Formula},
		{name: "fig3", src: progs.Fig3(n).Source, primary: "X", formula: fig3Formula},
		{name: "weather", src: progs.Weather(n).Source, primary: "V", formula: weatherFormula, conditional: true},
		{name: "iter-reconverge", src: fmt.Sprintf(iterReconverge, n), primary: "Y", formula: iterReconvergeFormula},
	}
}

// bind parses and checks p, then fills its inputs from rng.
func (p *program) bind(rng *rand.Rand) error {
	prog, err := val.Parse(p.src)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if p.chk, err = val.Check(prog); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	p.inputs = bindInputs(rng, p.chk)
	return nil
}

// bindInputs fills every declared input from rng with values uniform in
// [-0.9, 0.9], which keeps every recurrence of the programs here bounded.
func bindInputs(rng *rand.Rand, c *val.Checked) map[string][]value.Value {
	in := make(map[string][]value.Value, len(c.Inputs))
	for _, d := range c.Inputs {
		vs := make([]value.Value, d.Len())
		for i := range vs {
			vs[i] = value.R(rng.Float64()*1.8 - 0.9)
		}
		in[d.Name] = vs
	}
	return in
}

// laneInputs draws lanes-1 further input sets (lane 0 keeps base).
func laneInputs(rng *rand.Rand, c *val.Checked, lanes int) []map[string][]value.Value {
	out := make([]map[string][]value.Value, lanes)
	for l := 1; l < lanes; l++ {
		out[l] = bindInputs(rng, c)
	}
	return out
}

// reals converts a stream to float64s.
func reals(vs []value.Value) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v.AsReal()
	}
	return out
}

// smooth is the boundary-conditioned 3-point stencil of Example 1 at i
// (C indexed from 0).
func smooth(c []float64, i int) float64 {
	if i == 0 || i == len(c)-1 {
		return c[i]
	}
	return 0.25 * (c[i-1] + 2.*c[i] + c[i+1])
}

// recurrence evaluates T_0 = 0, T_i = a(i)·T_{i-1} + b(i) for i in 1..m
// and returns T over [0, m].
func recurrence(m int, a, b func(i int) float64) []float64 {
	t := make([]float64, m+1)
	for i := 1; i <= m; i++ {
		t[i] = a(i)*t[i-1] + b(i)
	}
	return t
}

func fig2Formula(in map[string][]float64) map[string][]float64 {
	a, b := in["A"], in["B"]
	y := make([]float64, len(a))
	for i := range y {
		v := a[i] * b[i]
		y[i] = (v + 2.) * (v - 3.)
	}
	return map[string][]float64{"Y": y}
}

func fig5Formula(in map[string][]float64) map[string][]float64 {
	a, b, c := in["A"], in["B"], in["C"]
	y := make([]float64, len(a))
	for i := range y {
		if c[i] > 0 {
			y[i] = -(a[i] + b[i])
		} else {
			y[i] = 5. * (a[i]*b[i] + 2.)
		}
	}
	return map[string][]float64{"Y": y}
}

func example1Formula(in map[string][]float64) map[string][]float64 {
	b, c := in["B"], in["C"]
	a := make([]float64, len(c))
	for i := range a {
		p := smooth(c, i)
		a[i] = b[i] * (p * p)
	}
	return map[string][]float64{"A": a}
}

func example2Formula(in map[string][]float64) map[string][]float64 {
	a, b := in["A"], in["B"] // both over [1, m]
	x := recurrence(len(a), func(i int) float64 { return a[i-1] }, func(i int) float64 { return b[i-1] })
	return map[string][]float64{"X": x}
}

func fig3Formula(in map[string][]float64) map[string][]float64 {
	a := example1Formula(in)["A"] // over [0, m+1]
	b := in["B"]
	x := recurrence(len(a)-2, func(i int) float64 { return a[i] }, func(i int) float64 { return b[i] })
	return map[string][]float64{"X": x}
}

func weatherFormula(in map[string][]float64) map[string][]float64 {
	u, k := in["U"], in["K"] // over [0, m+1]
	m := len(u) - 2
	d := func(i int) float64 { return k[i] * (u[i-1] - 2.*u[i] + u[i+1]) }
	l := func(i int) float64 {
		var f float64
		if u[i] > 0 {
			f = u[i] * (u[i] - u[i-1])
		} else {
			f = u[i] * (u[i+1] - u[i])
		}
		return math.Min(math.Max(f, -0.5), 0.5)
	}
	s := recurrence(m, func(int) float64 { return 0.25 }, func(i int) float64 { return d(i) - l(i) })
	v := make([]float64, m)
	for i := 1; i <= m; i++ {
		v[i-1] = u[i] + 0.1*s[i]
	}
	return map[string][]float64{"V": v}
}

func iterReconvergeFormula(in map[string][]float64) map[string][]float64 {
	c, b := in["C"], in["B"] // C over [0, m+1], B over [1, m]
	m := len(b)
	s := func(i int) float64 { return 0.25 * (c[i-1] + 2.*c[i] + c[i+1]) }
	x := recurrence(m, func(int) float64 { return 0.25 }, s)
	y := make([]float64, m)
	for i := 1; i <= m; i++ {
		y[i-1] = x[i]*s(i) + b[i-1]
	}
	return map[string][]float64{"Y": y}
}

// genProgram builds a pipe-structured program of blocks forall blocks,
// every array over [0, m+1]. Each block keeps its boundary elements and
// combines a 3-point window of the previous block with up to two of the
// four arrays before it, so reconvergent paths of unequal length — the
// balancer's work — appear throughout, while the buffering they need stays
// of one order across seeds. Coefficients sum to at most 1 in magnitude and inputs
// lie in [-1, 1], so every value stays in [-1, 1]. With tail set the
// program ends in a companion-scheme for-iter over the last block; its
// output is the program's output and feeds nothing else, so it never
// reconverges (see iterReconverge for what happens when it does).
func genProgram(rng *rand.Rand, name string, m, blocks int, tail bool) program {
	var b strings.Builder
	fmt.Fprintf(&b, "param m = %d;\n", m)
	avail := []string{"U", "W"}
	for _, in := range avail {
		fmt.Fprintf(&b, "input %s : array[real] [0, m+1];\n", in)
	}
	coef := func() float64 { return 0.05 + 0.2*rng.Float64() }
	last := "U"
	for k := 0; k < blocks; k++ {
		cur := fmt.Sprintf("B%d", k)
		prev := avail[len(avail)-1]
		near := avail[max(0, len(avail)-4):] // references reach back at most four arrays
		o1, o2 := near[rng.Intn(len(near))], near[rng.Intn(len(near))]
		var body string
		switch k % 3 {
		case 0:
			body = fmt.Sprintf("%.3f*%s[i-1] + %.3f*%s[i] + %.3f*%s[i+1] + %.3f*%s[i]",
				coef(), prev, coef(), prev, coef(), prev, coef(), o1)
		case 1:
			body = fmt.Sprintf("%.3f*(%s[i-1] - %s[i+1]) + %.3f*%s[i]*%s[i] + %.3f*%s[i+1]",
				coef(), prev, prev, coef(), o1, o2, coef(), prev)
		default:
			body = fmt.Sprintf("%.3f*%s[i] + %.3f*%s[i-1]*%s[i+1] - %.3f*%s[i-1]",
				coef(), prev, coef(), o1, prev, coef(), o2)
		}
		fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [0, m+1]\n  construct if (i = 0) | (i = m+1) then %s[i] else %s endif\n  endall;\n",
			cur, prev, body)
		avail = append(avail, cur)
		last = cur
	}
	if tail {
		step := fmt.Sprintf("%.3f*T[i-1] + 0.5*%s[i]", 0.1+0.3*rng.Float64(), last)
		fmt.Fprintf(&b, `X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then iter T := T[i: %s]; i := i + 1 enditer
    else T[i: %s] endif
  endfor;
`, step, step)
		last = "X"
	}
	fmt.Fprintf(&b, "output %s;\n", last)
	return program{name: name, src: b.String(), primary: last}
}
