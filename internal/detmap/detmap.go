// Package detmap provides deterministic map-iteration helpers.
//
// Go randomizes map iteration order on purpose; protocol code that schedules
// events or emits packets while ranging over a map would make simulation
// runs irreproducible even under a fixed seed. The lrlint map-range pass
// (internal/lint) forbids direct map iteration in those packages; these
// helpers are the blessed replacement.
package detmap

import (
	"cmp"
	"slices"
)

// SortedKeys returns the map's keys in ascending order. Iterating
//
//	for _, k := range detmap.SortedKeys(m) { ... m[k] ... }
//
// visits entries in a deterministic order at the cost of one allocation and
// an O(n log n) sort.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
