// Package cluster turns N single-node cdaserver processes into one
// logical service: a consistent-hash ring places every session on a
// member, each member is a primary/replica pair kept in sync by
// WAL-frame shipping (internal/sessionstore's replication layer), and
// a router fronts the ring — admitting requests through per-node and
// cluster-wide token buckets, promoting a member's replica when its
// primary stops acking (a circuit breaker on the injectable clock, so
// failover is deterministic in tests), and serving reads from replicas
// with an explicit staleness stamp when they lag.
//
// Everything is seedable and clock-injected: the chaos harness
// (internal/chaos) kills a primary mid-turn or partitions a replica
// and asserts, twice per seed, that the promoted replica serves the
// byte-identical committed transcript and that no committed turn is
// ever lost.
package cluster

import (
	"fmt"
	"sort"
)

// vnodes is the virtual-node count per member: enough points that
// removing or adding one member moves only ~1/N of the key space, while
// the ring stays tiny (N*128 points). Routers that counted differently
// would place a session on different members, so it is a constant.
const vnodes = 128

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint32
	member string
}

// Ring is a consistent-hash ring over member names. Placement is a
// pure function of (members, key) — no construction-order or
// map-iteration dependence — so every router instance in a deployment
// and every run of a seeded test agrees on where a session lives.
type Ring struct {
	points  []ringPoint
	members []string
}

// NewRing builds a ring over the given member names (order
// irrelevant; names must be unique and non-empty).
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	seen := map[string]bool{}
	r := &Ring{members: sorted, points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if seen[m] {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
		seen[m] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash32(fmt.Sprintf("%s#%d", m, v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (rare but possible at 32 bits) break by name so the
		// ring stays a pure function of its inputs.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Owner maps a key (session id) to the member owning it: the first
// virtual node at or clockwise of the key's hash.
func (r *Ring) Owner(key string) string {
	h := hash32(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// hash32 is FNV-1a — the same family the session store shards with,
// chosen here for the same reason: stable across processes and
// platforms, no seed, no allocation.
func hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
