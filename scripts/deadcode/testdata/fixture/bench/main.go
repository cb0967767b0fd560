// Command bench is the fixture's benchmark binary.
package main

import "fixture/internal/lib"

func main() {
	var k lib.Knobs
	k.BenchSet = 1
	println(lib.BenchOnly(), k.BenchSet)
}
