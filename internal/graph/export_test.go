package graph

// Expanded reports whether t has built its expanded graph.
func Expanded(t *Table) bool { return t.expanded != nil }
