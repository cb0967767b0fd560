// Package cluster scales the marshalling service horizontally: a front
// tier consistent-hashes session IDs onto N serve workers, a coordinator
// leases the global spend budget out in integer-frame chunks (so the
// fleet-wide cap holds without a shared lock on the billing path), and a
// coordinator-hosted result cache keeps cross-stream dedup alive when twin
// cameras land on different workers. What the tier costs and buys is
// measured, not modelled: bench/'s cluster_predict workload drives front +
// 2 workers + coordinator with serve_predict's traffic.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per worker. 64 vnodes keep the
// per-worker key share within ±20% of uniform for realistic worker counts
// while a join still moves only ~1/N of the keys.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over named nodes. Lookups are pure
// functions of (membership, key): two fronts that agree on the worker set
// route every session identically, which is what lets a restarted front
// pick up routing without session state.
//
// Ring is not safe for concurrent mutation. The front builds its ring once,
// in NewFront, before any request routes on it.
type Ring struct {
	vnodes int
	nodes  map[string]bool
	// points is the sorted vnode circle: hash -> owning node.
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with the given virtual-node count per
// node (0 uses DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV-1a alone mixes short, similar keys ("w000#1", "w000#2") poorly —
	// vnode points clump and the circle's arcs go lopsided. A splitmix64
	// finalizer avalanches the low-entropy tail so 64 vnodes actually buy
	// the ±20% balance the tier promises.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a node. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Identical vnode hashes (vanishingly rare) tie-break on name so
		// the circle order never depends on insertion order.
		return r.points[a].node < r.points[b].node
	})
}

// Nodes returns the membership in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the node count.
func (r *Ring) Len() int { return len(r.nodes) }

// Lookup returns the node owning key: the first vnode clockwise from the
// key's hash. Empty ring returns "".
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
