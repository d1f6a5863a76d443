package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// replicas is the virtual-node count per shard on the hash ring; 64 points
// per shard keeps the load split within a few percent of even for small
// fleets without making lookups noticeably slower.
const replicas = 64

// ring is a consistent-hash ring over n shards: each shard owns `replicas`
// pseudo-random points on a 64-bit circle, and a key maps to the shard owning
// the first point at or after the key's hash. Immutable after newRing; safe
// for concurrent lookup.
type ring struct {
	points []ringPoint
	n      int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// newRing builds a ring over n shards (minimum 1).
func newRing(n int) *ring {
	if n < 1 {
		n = 1
	}
	r := &ring{points: make([]ringPoint, 0, n*replicas), n: n}
	for s := 0; s < n; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("s%dr%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// lookup maps a key to its owning shard index.
func (r *ring) lookup(key string) int {
	if r.n == 1 {
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hash64 places a string on the 64-bit circle via SHA-256. Short
// sequential labels like the virtual-node names hash to badly clustered
// points under cheap multiplicative hashes (FNV-style), which skews the arc
// ownership; a cryptographic hash keeps the ring split within a few percent
// of even.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
