package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring places string keys (dataset ids) on nodes (worker ids) by
// consistent hashing with virtual nodes: each node projects vnodes points
// onto a 64-bit circle, and a key belongs to the first node point
// clockwise of the key's FNV-1a hash. Membership changes therefore move
// only the keys whose arc changed owner — the property that keeps a
// rebalance proportional to the churn, not to the cluster.
//
// The zero ring is empty. The ring is not safe for concurrent use; the
// coordinator guards it with its own lock.
type ring struct {
	points []ringPoint // sorted by hash
}

// vnodes is the number of points each node projects onto the circle.
const vnodes = 64

type ringPoint struct {
	hash uint64
	node string
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// add projects node onto the circle. Adding a present node is a no-op.
func (r *ring) add(node string) {
	for _, p := range r.points {
		if p.node == node {
			return
		}
	}
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, ringPoint{ringHash(fmt.Sprintf("%s#%d", node, i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove takes node off the circle. Removing an absent node is a no-op.
func (r *ring) remove(node string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// owner returns the node owning key, or "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].node
}
