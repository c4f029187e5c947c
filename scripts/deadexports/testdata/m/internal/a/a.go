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
