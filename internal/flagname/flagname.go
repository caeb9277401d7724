// Package flagname builds the name tables behind the commands' enum
// flags (-alg, -bal, -dist). Every value is named by its String method,
// the name the harness prints, so each name is decided once, by its
// type.
package flagname

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// ByName indexes values by their String names, each converted to T: the
// value's own type, or a type numbered the same way (parsel.Algorithm
// for selection.Algorithm, parsel.Balancer for balance.Method).
func ByName[T ~int, V interface {
	~int
	fmt.Stringer
}](values []V) map[string]T {
	m := make(map[string]T, len(values))
	for _, v := range values {
		m[v.String()] = T(v)
	}
	return m
}

// Keys lists a name table's names, sorted, for the usage text and the
// unknown-name errors.
func Keys[V any](m map[string]V) string {
	return strings.Join(slices.Sorted(maps.Keys(m)), ", ")
}
