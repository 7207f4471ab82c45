// Package a is the library under judgement: benchroot (a second load root)
// and a_test.go (never loaded) are its only callers.
package a

// Monitor is called through by Drive; the methods that satisfy it are
// reached though nothing names them.
type Monitor interface {
	Start()
	Stop()
}

type Sweeper struct {
	Period int // set by benchroot
	Spare  int // want `field a.Sweeper.Spare is used by no non-test file`
	Wire   int `json:"wire"` // read by a decoder, not by name
}

func (s *Sweeper) Start() {}
func (s *Sweeper) Stop()  {}

func (s *Sweeper) Sweeps() int { return 0 } // want `method a.Sweeper.Sweeps is used by no non-test file`

// String is reached through fmt.Stringer, which benchroot's import of fmt
// brings into the universe.
func (s *Sweeper) String() string { return "sweeper" }

func Drive(m Monitor) {
	m.Start()
	m.Stop()
}

// Walk calls only itself.
func Walk(n int) int { // want `func a.Walk is used by no non-test file`
	if n == 0 {
		return 0
	}
	return Walk(n - 1)
}

// node mentions itself in its own declaration and nowhere else.
type node struct { // want `type a.node is used by no non-test file`
	next *node // want `field a.node.next is used by no non-test file`
}

// ring is mentioned only by its own method's receiver.
type ring struct{} // want `type a.ring is used by no non-test file`

func (r *ring) len() int { return 0 } // want `method a.ring.len is used by no non-test file`

func OnlyTests() {} // want `func a.OnlyTests is used by no non-test file`

type Fixture struct { // want `type a.Fixture is used by no non-test file`
	N int // want `field a.Fixture.N is used by no non-test file`
}

func OnlyBench() int { return helper() }

func helper() int { return limit }

const limit = 8

// Pair is built positionally, which names neither field.
type Pair struct{ Lo, Hi int }

var Default = Pair{1, 2}

// RFC-numbered codes: a hole in the block is worse than an unused name.
//
//lint:allow unusedexport RFC 1157 error-status values, kept complete
const (
	NoError  = 0
	TooBig   = 1
	BadValue = 2
)

//lint:allow unusedexport kept for the wire format's sake
func Reserved() {}

//lint:allow unusedexport benchroot calls it now // want `//lint:allow unusedexport suppresses nothing`
func Adopted() {}

// Sink is asserted to by benchroot through an anonymous interface whose
// parameters are unnamed; Configure's are named.
type Sink struct {
	OnDrop func(reason string, n int) // want `field a.Sink.OnDrop is used by no non-test file`
}

func (s *Sink) Configure(depth int, label string) {}
