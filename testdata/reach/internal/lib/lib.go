package lib

import "fmt"

// Point is reached; its String method is called only through
// fmt.Stringer.
type Point struct{ X, Y int }

func NewPoint() Point { return Point{1, 2} }

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

type Speed int

const (
	Slow Speed = iota // reached only as Fast's zero-value sibling
	Fast
)

// Handle is an alias that only the tests use.
type Handle = Point

func Used() int { return 1 }

// Fixture is called only by tests; the gate's test allowlists it, and
// what it uses is kept with it.
func Fixture() int { return fixtureHelper() }

func fixtureHelper() int { return 2 }

// Dead is reached by nothing.
func Dead() {}
