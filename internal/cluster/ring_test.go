package cluster

import (
	"fmt"
	"testing"
)

func workerName(i int) string { return fmt.Sprintf("w%03d", i) }

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%05d", i)
	}
	return keys
}

// TestRingDistribution pins the load-balance property the vnode count was
// chosen for: at DefaultVNodes (64) every worker's key share stays within
// ±20% of uniform. The hash is fixed, so this is a deterministic check,
// not a statistical one.
func TestRingDistribution(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		r := NewRing(0)
		for w := 0; w < workers; w++ {
			r.Add(workerName(w))
		}
		keys := ringKeys(20_000)
		load := make(map[string]int)
		for _, k := range keys {
			n := r.Lookup(k)
			if n == "" {
				t.Fatal("lookup on non-empty ring returned nothing")
			}
			load[n]++
		}
		uniform := float64(len(keys)) / float64(workers)
		for w := 0; w < workers; w++ {
			got := float64(load[workerName(w)])
			if got < 0.8*uniform || got > 1.2*uniform {
				t.Fatalf("%d workers: %s carries %.0f keys, uniform %.0f (outside ±20%%): %v",
					workers, workerName(w), got, uniform, load)
			}
		}
	}
}

// TestRingJoinMovesBoundedKeys: growing N workers to N+1 re-routes at most
// ~1/(N+1) of the keys (with the ±20% share tolerance), and every moved
// key moves TO the new worker — the defining consistent-hashing property.
// A plain mod-N hash would move ~N/(N+1) of them.
func TestRingJoinMovesBoundedKeys(t *testing.T) {
	keys := ringKeys(20_000)
	for _, workers := range []int{2, 4, 8} {
		r := NewRing(0)
		for w := 0; w < workers; w++ {
			r.Add(workerName(w))
		}
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k] = r.Lookup(k)
		}
		joined := workerName(workers)
		r.Add(joined)
		moved := 0
		for _, k := range keys {
			after := r.Lookup(k)
			if after != before[k] {
				moved++
				if after != joined {
					t.Fatalf("key %s moved %s -> %s, not to the joining worker %s", k, before[k], after, joined)
				}
			}
		}
		bound := 1.2 * float64(len(keys)) / float64(workers+1)
		if float64(moved) > bound {
			t.Fatalf("join at %d workers moved %d keys, bound %.0f", workers, moved, bound)
		}
	}
}

// TestRingLookupDeterministic: membership + key fully determine the route,
// independent of insertion order.
func TestRingLookupDeterministic(t *testing.T) {
	a := NewRing(0)
	for _, n := range []string{"w000", "w001", "w002"} {
		a.Add(n)
	}
	b := NewRing(0)
	for _, n := range []string{"w002", "w000", "w001"} {
		b.Add(n)
	}
	for _, k := range ringKeys(1000) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("key %s routes differently under permuted membership", k)
		}
	}
}

// TestRingEmptyAndDuplicates: edge behavior that the front depends on.
func TestRingEmptyAndDuplicates(t *testing.T) {
	r := NewRing(0)
	if got := r.Lookup("x"); got != "" {
		t.Fatalf("empty ring lookup = %q", got)
	}
	r.Add("w000")
	r.Add("w000") // idempotent
	if r.Len() != 1 || len(r.points) != DefaultVNodes {
		t.Fatalf("duplicate add changed ring: len %d, points %d", r.Len(), len(r.points))
	}
	if got := r.Lookup("x"); got != "w000" {
		t.Fatalf("single-node ring lookup = %q", got)
	}
}
