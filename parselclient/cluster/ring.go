// Package cluster routes datasets across a fleet of parseld nodes from
// the client library — no coordinator process, no server-side
// membership protocol. Placement is a consistent-hash ring keyed on
// dataset id: every client that knows the node list computes the same
// placement independently, so the "cluster" is nothing but N ordinary
// daemons plus this library agreeing on arithmetic. Replication ships
// snapshots between nodes (the binary dataset format both ends already
// speak, zero-copy on both), queries fail over across replicas, and a
// ring change rebalances by shipping — resident keys move between
// nodes without ever transiting the client again.
//
// The topology deliberately mirrors the paper's own model: selection
// on a p-processor coarse-grained machine scales by adding processors
// that each own a shard of the data; serving scales the same way, with
// datasets in place of shards and daemons in place of processors.
// Every key kind ships the same way: the snapshot format holds int64,
// float64 and string keys alike.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVirtualNodes is how many ring points each node contributes
// when Config.VirtualNodes is zero. 64 points per node keeps the
// largest/smallest node share within a few tens of percent for small
// fleets — tight enough that no node needs 2x the memory of another —
// while the ring stays a few KiB.
const defaultVirtualNodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a physical node.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is a consistent-hash ring over a fixed node list. It is
// immutable after construction (a membership change builds a new Ring),
// so reads need no locking. Placement depends only on the node names
// and VirtualNodes — never on map order, process identity or time — so
// every client computes identical placements.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// NewRing builds a ring with vnodes points per node (0 means the
// default 64). Node names must be non-empty and unique — they are the
// hash keys, so two spellings of one node would silently double it.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for i, n := range r.nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name at index %d", i)
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(n + "#" + strconv.Itoa(v)),
				node: i,
			})
		}
	}
	// Sort by hash; ties (vanishingly rare but possible) break by node
	// index so the ring order is fully deterministic.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// ringHash is FNV-1a 64 followed by a splitmix64-style finalizer —
// both fixed algorithms, so the value is stable across processes,
// architectures and Go releases (unlike maphash), which is what makes
// coordinator-free placement possible. The finalizer matters: raw
// FNV-1a of strings that differ only in a short suffix ("node#0"
// through "node#63") lands within a ~2^46-wide window of the circle,
// because the last byte contributes at most 255 multiples of the FNV
// prime. Without the mix, one node's vnodes all clump together and the
// ring balances no better than a single point per node.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the ring's node list in construction order.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Place returns the replicas distinct nodes owning a dataset id, in
// preference order: the first is the primary (the node whose ring
// point follows the id's hash), the rest are successors clockwise.
// replicas is clamped to the node count. The walk skips points of
// already-chosen nodes, which is exactly what makes movement minimal:
// a node joining or leaving only reassigns the ids whose walk crossed
// its points, about 1/n of the keyspace per replica.
func (r *Ring) Place(id string, replicas int) []string {
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(r.nodes) {
		replicas = len(r.nodes)
	}
	h := ringHash(id)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	chosen := make([]string, 0, replicas)
	taken := make(map[int]bool, replicas)
	for i := 0; i < len(r.points) && len(chosen) < replicas; i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.node] {
			continue
		}
		taken[p.node] = true
		chosen = append(chosen, r.nodes[p.node])
	}
	return chosen
}
