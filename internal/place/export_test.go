package place

import "staticpipe/internal/graph"

// PlanCold is Plan with every refinement round's assignment solved from
// scratch: the reference the warm-started rounds are checked against.
func PlanCold(g *graph.Graph, opts Options) (*Placement, error) {
	return plan(g, opts, false)
}
