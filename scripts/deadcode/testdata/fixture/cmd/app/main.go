// Command app is the fixture's one binary.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"fixture/internal/lib"
)

func main() {
	r := lib.Report{Read: 1, Unread: 2}
	fmt.Println(r.Read, lib.Live(), lib.First)
	var s fmt.Stringer = lib.Shape{}
	fmt.Println(s)
	b, _ := json.Marshal(lib.Wire{A: 1})
	os.Stdout.Write(b)
	lib.Show(lib.Summary{N: 3})
}
