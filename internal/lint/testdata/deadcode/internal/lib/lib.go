// Package lib holds one example of each way code stays live, or not,
// under the deadcode check.
package lib

import "cmp"

// One is live only because main's init registers it as a function value.
func One() int { return 1 }

// ViaClosure is live only because main calls it inside a function
// literal; helper is live because ViaClosure calls it.
func ViaClosure() int { return helper() }

func helper() int { return 2 }

// Name is live because main passes a Name to fmt.Println.
type Name struct{ S string }

// String is never called directly; fmt.Stringer reaches it.
func (n Name) String() string { return n.S }

// Inner's Hello is reached through Wrapped, which embeds Inner.
type Inner struct{}

// Hello is promoted into Wrapped.
func (Inner) Hello() string { return "hi" }

// Wrapped embeds Inner.
type Wrapped struct{ Inner }

// Max is generic; main's instantiation reaches the declaration.
func Max[T cmp.Ordered](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Stack is a generic type whose methods main calls on Stack[int].
type Stack[T any] struct{ items []T }

// Push appends v.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Len returns the stack depth.
func (s *Stack[T]) Len() int { return len(s.items) }

// Orphan is never referenced: a finding.
func Orphan() int { return orphanHelper() }

// orphanHelper is called only by the dead Orphan: a finding too.
func orphanHelper() int { return 3 }

// Unnamed is never named by live code, so its String stays dead even
// though fmt.Stringer declares the name.
type Unnamed struct{}

// String is a finding: no live code names Unnamed.
func (Unnamed) String() string { return "unnamed" }

// Counter stands in for state other packages' tests observe.
type Counter struct{ n int }

// Observed is kept for those tests, with the exception named.
//
//soravet:allow deadcode (b) cross-package observer: fixture stand-in for an accessor another package's tests read
func (c *Counter) Observed() int { return c.n }

// Kept is called by main, so its directive suppresses nothing.
//
//soravet:allow deadcode stale directive left on a live function
func Kept() int { return 4 }
