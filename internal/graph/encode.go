package graph

import (
	"encoding/json"
	"fmt"

	"staticpipe/internal/value"
)

// The serialized graph format: a stable JSON encoding of the machine-level
// program, the moral equivalent of the static architecture's loadable
// instruction-cell image. cmd/dfc can emit it (-emit) and cmd/dfsim can
// execute it (-graph), separating compilation from simulation.

// fileFormat identifies the encoding; bump on incompatible changes.
const fileFormat = "staticpipe-graph/1"

type jsonFile struct {
	Format string     `json:"format"`
	Nodes  []jsonNode `json:"nodes"`
	Arcs   []jsonArc  `json:"arcs"`
}

type jsonNode struct {
	Op      uint8                  `json:"op"`
	Label   string                 `json:"label,omitempty"`
	Ports   int                    `json:"ports"`
	Cap     int                    `json:"cap,omitempty"`
	Stream  []value.Value          `json:"stream,omitempty"`
	Pattern *jsonPattern           `json:"pattern,omitempty"`
	Buffer  bool                   `json:"buffer,omitempty"`
	Lits    map[string]value.Value `json:"lits,omitempty"` // port -> literal
}

type jsonPattern struct {
	Prefix []bool `json:"prefix,omitempty"`
	Body   []bool `json:"body,omitempty"`
	Repeat int    `json:"repeat,omitempty"`
	Suffix []bool `json:"suffix,omitempty"`
}

type jsonArc struct {
	From     int          `json:"from"`
	To       int          `json:"to"`
	ToPort   int          `json:"port"`
	Gate     int          `json:"gate,omitempty"`
	Init     *value.Value `json:"init,omitempty"`
	Feedback bool         `json:"feedback,omitempty"`
	Rigid    bool         `json:"rigid,omitempty"`
	Skew     int          `json:"skew,omitempty"`
	Marking  int          `json:"marking,omitempty"`
}

// Marshal serializes the graph. The encoding is deterministic (nodes and
// arcs in ID order) and self-contained: Unmarshal reconstructs an
// equivalent graph.
func (g *Graph) Marshal() ([]byte, error) {
	f := jsonFile{Format: fileFormat}
	for _, n := range g.nodes {
		jn := jsonNode{
			Op:     uint8(n.Op),
			Label:  n.Label,
			Ports:  len(n.In),
			Cap:    n.Cap,
			Stream: n.Stream,
			Buffer: n.Buffer,
		}
		if n.Op == OpCtlGen {
			jn.Pattern = &jsonPattern{}
			if p := n.Pattern; p != nil {
				*jn.Pattern = jsonPattern{Prefix: p.Prefix, Body: p.Body, Repeat: p.Repeat, Suffix: p.Suffix}
			}
		}
		for p, in := range n.In {
			if in.Literal != nil {
				if jn.Lits == nil {
					jn.Lits = map[string]value.Value{}
				}
				jn.Lits[fmt.Sprint(p)] = *in.Literal
			}
		}
		f.Nodes = append(f.Nodes, jn)
	}
	for _, a := range g.arcs {
		ja := jsonArc{
			From: int(a.From), To: int(a.To), ToPort: a.ToPort,
			// Gate is stored shifted by one so that 0 (omitted) means
			// "unconditional" even though port 0 is a valid gate port.
			Gate: a.Gate + 1, Init: a.Init,
			Feedback: a.Feedback, Rigid: a.Rigid, Skew: a.Skew, Marking: a.Marking,
		}
		f.Arcs = append(f.Arcs, ja)
	}
	return json.MarshalIndent(f, "", " ")
}

// Unmarshal reconstructs a graph written by Marshal and validates it.
func Unmarshal(data []byte) (*Graph, error) {
	var f jsonFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if f.Format != fileFormat {
		return nil, fmt.Errorf("graph: unknown format %q (want %q)", f.Format, fileFormat)
	}
	g := New()
	for i, jn := range f.Nodes {
		op := Op(jn.Op)
		if op.NumIn() < 0 || !opKnown(op) {
			return nil, fmt.Errorf("graph: node %d has unknown op %d", i, jn.Op)
		}
		n := g.Add(op, jn.Label)
		if jn.Ports < op.NumIn() {
			return nil, fmt.Errorf("graph: node %d has %d ports, op %s needs %d", i, jn.Ports, op, op.NumIn())
		}
		for len(n.In) < jn.Ports {
			g.AddGate(n)
		}
		n.Cap = jn.Cap
		n.Stream = jn.Stream
		if op == OpSource && n.Stream == nil {
			n.Stream = []value.Value{}
		}
		n.Buffer = jn.Buffer
		if jn.Pattern != nil {
			n.Pattern = &Pattern{
				Prefix: jn.Pattern.Prefix, Body: jn.Pattern.Body,
				Repeat: jn.Pattern.Repeat, Suffix: jn.Pattern.Suffix,
			}
		}
	}
	for i, ja := range f.Arcs {
		if ja.From < 0 || ja.From >= len(g.nodes) || ja.To < 0 || ja.To >= len(g.nodes) {
			return nil, fmt.Errorf("graph: arc %d endpoints out of range", i)
		}
		from, to := g.nodes[ja.From], g.nodes[ja.To]
		if ja.ToPort < 0 || ja.ToPort >= len(to.In) {
			return nil, fmt.Errorf("graph: arc %d targets missing port %d of node %d", i, ja.ToPort, ja.To)
		}
		if to.In[ja.ToPort].Arc != nil || to.In[ja.ToPort].Literal != nil {
			return nil, fmt.Errorf("graph: arc %d doubly feeds port %d of node %d", i, ja.ToPort, ja.To)
		}
		if !from.Op.HasOut() {
			return nil, fmt.Errorf("graph: arc %d leaves %s, which has no output", i, from.Op)
		}
		gate := ja.Gate - 1
		if gate != NoGate && (gate < 0 || gate >= len(from.In)) {
			return nil, fmt.Errorf("graph: arc %d gated by missing port %d of node %d", i, gate, ja.From)
		}
		a := g.ConnectGated(from, gate, to, ja.ToPort)
		if ja.Init != nil {
			g.SetInit(a, *ja.Init)
		}
		a.Feedback = ja.Feedback
		a.Rigid = ja.Rigid
		a.Skew = ja.Skew
		a.Marking = ja.Marking
	}
	for i, jn := range f.Nodes {
		for ps, lit := range jn.Lits {
			var p int
			if _, err := fmt.Sscanf(ps, "%d", &p); err != nil {
				return nil, fmt.Errorf("graph: node %d literal port %q", i, ps)
			}
			if p < 0 || p >= len(g.nodes[i].In) {
				return nil, fmt.Errorf("graph: node %d literal on missing port %d", i, p)
			}
			if g.nodes[i].In[p].Arc != nil {
				return nil, fmt.Errorf("graph: node %d port %d has both an arc and a literal", i, p)
			}
			g.SetLiteral(g.nodes[i], p, lit)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// opKnown reports whether the opcode is in the defined set.
func opKnown(op Op) bool {
	_, ok := opNames[op]
	return ok
}
