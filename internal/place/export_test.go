package place

import "staticpipe/internal/graph"

// PlanCold is Plan with every refinement round's assignment solved from
// scratch: the reference the warm-started rounds are checked against.
func PlanCold(g *graph.Graph, opts Options) (*Placement, error) {
	t, err := graph.Lower(g)
	if err != nil {
		return nil, err
	}
	return plan(t, opts, false)
}
