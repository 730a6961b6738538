// Package prov_bad holds streams the provenance trace cannot root in a
// seeded construction: every consumption here must be a finding.
package prov_bad

import "math/rand"

// pool fabricates streams behind an index expression, which the trace
// cannot see through.
func pool() []*rand.Rand {
	return make([]*rand.Rand, 4)
}

// leak returns an untraceable stream: its return expression is an element
// of a slice, not a rand.New construction.
func leak() *rand.Rand {
	return pool()[0]
}

// ConsumeLocal draws from a local whose single origin is untraceable.
func ConsumeLocal(n int) int {
	r := leak()
	return r.Intn(n)
}

// pickFrom consumes a parameter; the only call site passes an untraceable
// argument, so the parameter's origin set contains unknown.
func pickFrom(r *rand.Rand, n int) int64 {
	return r.Int63n(int64(n))
}

// CallWithLeak feeds the untraceable stream into pickFrom.
func CallWithLeak(n int) int {
	return int(pickFrom(leak(), n))
}

type holder struct {
	rng *rand.Rand
}

// ConsumeField draws from a field whose recorded assignment is untraceable.
func ConsumeField(n int) int {
	h := &holder{rng: leak()}
	return h.rng.Intn(n)
}

type valHolder struct {
	rng rand.Rand
}

// ConsumeValueField draws from a value-held stream copied out of an
// untraceable pointer.
func ConsumeValueField(n int) int {
	var h valHolder
	h.rng = *leak()
	return h.rng.Intn(n)
}
