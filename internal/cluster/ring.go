// Package cluster is the multi-node subsystem behind cmd/rcagate: a
// consistent-hash ring of rcaserve nodes, static-config membership
// with active health checking, and an HTTP forwarding layer with
// bounded per-node connection pools.
//
// Requests are placed on the ring by the engine's canonical routing
// digest (engine.RouteKey), so two requests the result cache would
// answer from one entry land on one node and reuse its warm cache.
// Membership is a fixed operator-supplied list; liveness is dynamic —
// a health checker probes every node's /healthz and marks nodes down
// after a configurable run of failures, at which point their key
// range deterministically rehashes to the ring successor (lookups
// simply skip down nodes in ring order), and back up on the first
// successful probe.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the vnode count per fleet member, and
// NewRing's when vnodes <= 0. 128 points per node keeps the
// load skew across members within ~15% (asserted by the seeded
// distribution test) while the full ring stays small enough to walk.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring: every member contributes
// vnodes points derived only from its name, so the ring is identical
// across gateway restarts and across gateways — a key routes to the
// same owner everywhere, forever, unless membership itself changes.
// Removing one member moves only the keys it owned (its points
// vanish; every other point is untouched).
type Ring struct {
	names  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int32
}

// NewRing builds the ring over the member names. Names must be unique
// and non-empty; vnodes <= 0 selects DefaultVirtualNodes.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{
		names:  append([]string(nil), names...),
		points: make([]ringPoint, 0, len(names)*vnodes),
	}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		seen[name] = true
		base := hashString(name)
		for v := 0; v < vnodes; v++ {
			// Each vnode point re-mixes the name hash with the vnode
			// index through the full-avalanche finalizer, so points are
			// spread independently rather than clustered per member.
			ph := mix64(base ^ mix64(uint64(v)*0x9e3779b97f4a7c15+0xc2b2ae3d27d4eb4f))
			r.points = append(r.points, ringPoint{hash: ph, node: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A 64-bit point collision is vanishingly unlikely; break the
		// tie by node index so the sort (and thus ownership) stays
		// deterministic regardless.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes returns the member names in construction order.
func (r *Ring) Nodes() []string { return r.names }

// Size returns the total point count.
func (r *Ring) Size() int { return len(r.points) }

// Owner returns the index (into Nodes) of the member owning the key:
// the node of the first ring point at or clockwise after the key.
func (r *Ring) Owner(key uint64) int {
	return int(r.points[r.successor(key)].node)
}

// successor finds the first point index with hash >= key, wrapping.
func (r *Ring) successor(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Sequence returns every member index in ring order starting at the
// key's owner, each exactly once — the replica preference order. A
// caller skipping down members over this sequence implements the
// deterministic rehash: the first up entry is the effective owner.
func (r *Ring) Sequence(key uint64) []int {
	out := make([]int, 0, len(r.names))
	seen := make([]bool, len(r.names))
	start := r.successor(key)
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, int(p.node))
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer (same full-avalanche mixer the
// engine's canonical key digest uses).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString folds a string through FNV-1a and the finalizer.
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}
