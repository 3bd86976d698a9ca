package lib

// Used is reached from main, and reaches helper by a call, double as a
// function value and Map through a generic instance.
func Used() int { return helper() + Map([]int{1}, double)[0] }

func helper() int { return 1 }

func double(x int) int { return 2 * x }

// Map applies f to every element.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Celsius.String is reached by dispatch: fmt calls it through
// fmt.Stringer.
type Celsius float64

func (c Celsius) String() string { return "celsius" }

// Shape is an interface of this module, so Square.Area is reached by
// dispatch once Square is.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Area measures any shape.
func Area(s Shape) int { return s.Area() }

// Kept is reached only through the allowlist.
func Kept() {}

// TestOnly is called only from lib_test.go, and inner only from
// TestOnly: the lint flags both.
func TestOnly() int { return inner() }

func inner() int { return 2 }

// init and a package-level variable initializer are roots too.
func init() { fromInit() }

func fromInit() {}

var _ = fromVar()

func fromVar() int { return 0 }
