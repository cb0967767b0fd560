// Package lib holds one declaration of every class the gate tells apart.
package lib

import "fmt"

// Live is reached from cmd/app.
func Live() int { return asmAdd(1, 2) }

// DeadExported has no caller.
func DeadExported() {}

func deadUnexported() {}

func ownTestHelper() int { return 1 }

// SharedTestHelper is called only by package other's tests.
func SharedTestHelper() int { return 2 }

// BenchOnly is called only by bench/.
func BenchOnly() int { return 3 }

// asmAdd is implemented in add.s.
func asmAdd(a, b int) int

// Shape reaches String only through fmt.Stringer.
type Shape struct{}

func (Shape) String() string { return "shape" }

// Unused is a method nothing calls.
func (Shape) Unused() {}

// Report has a field cmd/app writes and never reads.
type Report struct {
	Read   int
	Unread int
}

// Wire's field is read by encoding/json.
type Wire struct {
	A int
}

// Summary's field is read by fmt, through Show's parameter.
type Summary struct {
	N int
}

// Show prints v.
func Show(v any) { fmt.Println(v) }

// Kind is an iota group: using one member keeps all.
type Kind int

const (
	First Kind = iota
	Second
	Third
)

// Knobs has a field of each way to be written; cmd/app reads them all.
type Knobs struct {
	Zero      int // nothing writes it
	Assigned  int
	Keyed     int
	Counted   int
	Addressed int
	Sub       Summary
	List      []int
	BenchSet  int
	TestSet   int
}

// Inbound's field is written by encoding/json.
type Inbound struct {
	B int
}
