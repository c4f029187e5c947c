// Package a declares one symbol for each case the dead-surface check must
// decide.
package a

import "fmt"

// Used is used, with its Close.
type Used struct{}

// Close is called on a Used.
func (Used) Close() {}

// Other is used as a value, but its Close, which shares its name with
// Used.Close, is never called.
type Other struct{}

// Close is unused.
func (Other) Close() {}

// Named is printed, so its String is used through fmt.Stringer.
type Named struct{}

func (Named) String() string { return "named" }

// Config is decoded from JSON, through json.Unmarshaler.
type Config struct{ N int }

// UnmarshalJSON reads the one number a Config holds.
func (c *Config) UnmarshalJSON(b []byte) error {
	_, err := fmt.Sscan(string(b), &c.N)
	return err
}

// Runner is the module's own interface.
type Runner interface{ Run() }

type runner struct{}

func (runner) Run() {}

// NewRunner returns the one Runner.
func NewRunner() Runner { return runner{} }

// Box is generic; its Get is used only through an instantiation.
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b Box[T]) Get() T { return b.v }

// Wrap boxes v.
func Wrap[T any](v T) Box[T] { return Box[T]{v} }

// OnlyTests is used only from a test file.
func OnlyTests() {}

// FromSecond is used only from the second module.
func FromSecond() {}

// Unused is used nowhere.
func Unused() {}

func unusedHelper() {}

// Tally has one field for each case the field check must decide.
type Tally struct {
	written  int    // assigned, incremented and set in a literal only: reported
	forTests int    // read only from a test file: reported
	viaValue int    // read by a method used only as a method value
	name     Named  // read through a method value of its own
	seen     []bool // read as a whole by len
}

// NewTally returns a Tally that has seen n values.
func NewTally(n int) *Tally {
	return &Tally{written: n, seen: make([]bool, n)}
}

// Add records n.
func (t *Tally) Add(n int) {
	t.written = n
	t.written++
	t.forTests += n
	t.viaValue = n
	t.seen[0] = true
}

func (t *Tally) value() int { return t.viaValue + len(t.seen) }

// Funcs returns t's value and its name's String as funcs.
func (t *Tally) Funcs() (func() int, func() string) { return t.value, t.name.String }

// pair's fields are read only as a map key, and point's only by ==.
type pair struct{ x, y int }
type point struct{ x, y int }

// Count counts one pair and reports whether it is the origin point.
func Count(x, y int) bool {
	m := map[pair]int{}
	m[pair{x: x, y: y}]++
	return point{x, y} == point{}
}
