package pe

// span is the half-open run of iteration positions [lo, hi).
type span struct{ lo, hi int64 }

// iterSet is an iteration set: the positions a forall covers, or those one
// arm of a static conditional selects. It holds them as sorted, disjoint,
// non-adjacent half-open spans, so its size follows the number of runs in
// the selection, not the extent. A data-dependent selection, whose
// positions are not known at compile time, is the separate marker value
// dynamicSet; an arm selected for no position is the empty static set,
// which is not dynamic.
type iterSet struct {
	spans   []span
	dynamic bool
}

// dynamicSet marks a data-dependent selection.
var dynamicSet = iterSet{dynamic: true}

// fullSet returns the static set of positions 0..n−1.
func fullSet(n int64) iterSet {
	if n <= 0 {
		return iterSet{}
	}
	return iterSet{spans: []span{{0, n}}}
}

// count returns the number of positions in a static set.
func (s iterSet) count() int64 {
	var n int64
	for _, r := range s.spans {
		n += r.hi - r.lo
	}
	return n
}

// add appends position p, which must exceed every position already in the
// set; it extends the last span when p continues it.
func (s *iterSet) add(p int64) {
	if k := len(s.spans) - 1; k >= 0 && s.spans[k].hi == p {
		s.spans[k].hi++
		return
	}
	s.spans = append(s.spans, span{p, p + 1})
}

// split evaluates pred at each position of a static set, in ascending
// order, and returns its values as a control pattern, one per position,
// with the positions where it holds and where it fails. It stops with ok
// false at the first position where pred reports no value.
func (s iterSet) split(pred func(p int64) (v, ok bool)) (pattern []bool, then, els iterSet, ok bool) {
	pattern = make([]bool, 0, s.count())
	for _, r := range s.spans {
		for p := r.lo; p < r.hi; p++ {
			v, known := pred(p)
			if !known {
				return nil, iterSet{}, iterSet{}, false
			}
			if v {
				then.add(p)
			} else {
				els.add(p)
			}
			pattern = append(pattern, v)
		}
	}
	return pattern, then, els, true
}
