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

	k := lib.Knobs{Keyed: 1}
	k.Assigned = 2
	k.Counted++
	set(&k.Addressed)
	k.Sub.N = 3
	k.List[0] = 4
	fmt.Println(k.Zero, k.Assigned, k.Keyed, k.Counted, k.Addressed, k.Sub, k.List, k.BenchSet, k.TestSet)
	var in lib.Inbound
	json.Unmarshal(b, &in)
	fmt.Println(in.B)
}

func set(p *int) { *p = 1 }
