// Package cluster holds the consistent-hash ring that assigns users to
// the members of a semantic edge cluster. The cluster itself — members,
// cooperative fetch and handover — lives in internal/mesh; the ring sits
// apart so clients and load generators can route users exactly as the
// members do without importing the serving stack.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over node indices: every node owns a
// fixed number of virtual points placed by a seeded hash, and a user maps
// to the first point clockwise from their own hash. Identically-configured
// clusters therefore route identically, and adding or removing one node
// reassigns only the users whose arcs it owned — the property that keeps
// cache warmth intact as a deployment scales, and that lets the mesh
// recompute ownership on join/leave by rebuilding the ring over the live
// members (a dead node's points vanish; every other arc is untouched).
type Ring struct {
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node.
type ringPoint struct {
	hash uint64
	node int
}

// Hash64 is FNV-1a over s with a murmur-style finalizer. The finalizer
// matters: plain FNV over short sequential names ("u001", "u002", ...)
// yields near-sequential hashes that all land on one arc of the ring; the
// avalanche spreads them uniformly. It is exported so out-of-process
// peers (and drivers) can derive per-user values that agree with the
// ring's placement.
func Hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewRingFor builds the ring over a member set (node indices, not
// necessarily contiguous), placing replicas virtual points per member,
// seeded by seed. A member's virtual points depend only on its own
// index, so the ring over [0,2] is the ring over [0,1,2] with node 1's
// points removed — the rebalance a mesh performs when a peer dies.
func NewRingFor(members []int, replicas int, seed uint64) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(members)*replicas)}
	for _, n := range members {
		for v := 0; v < replicas; v++ {
			h := Hash64(fmt.Sprintf("%x/node-%d/%d", seed, n, v))
			r.points = append(r.points, ringPoint{hash: h, node: n})
		}
	}
	// Ties break by node index so the order is total and deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Node returns the owning node index for key.
func (r *Ring) Node(key string) int {
	h := Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node
}
