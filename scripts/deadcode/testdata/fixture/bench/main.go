// Command bench is the fixture's benchmark binary.
package main

import "fixture/internal/lib"

func main() { println(lib.BenchOnly()) }
