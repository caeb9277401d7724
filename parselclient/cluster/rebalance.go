package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"parsel/parselclient"
)

// SetNodes replaces the fleet's node list: the ring is rebuilt,
// clients for surviving nodes are kept (their connection pools and
// retry budgets carry over), clients for new nodes are built from the
// Router's options, and departed nodes are dropped from the health
// view. Datasets do not move until Rebalance is called — between the
// two, queries for ids whose placement changed may fail over to a
// node that does not hold a copy yet, so the usual sequence is
// SetNodes immediately followed by Rebalance.
func (r *Router) SetNodes(nodes []string) error {
	ring, err := NewRing(nodes, r.cfg.VirtualNodes)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = ring
	r.cfg.Nodes = ring.Nodes()
	if r.cfg.Replicas > len(nodes) {
		r.cfg.Replicas = len(nodes)
	}
	keep := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		keep[n] = true
		if r.clients[n] == nil {
			r.clients[n] = parselclient.New(n, r.opts...)
		}
	}
	for n := range r.clients {
		if !keep[n] {
			delete(r.clients, n)
			delete(r.downAt, n)
		}
	}
	return nil
}

// RebalanceReport says what a Rebalance pass did.
type RebalanceReport struct {
	// Datasets is how many tracked datasets were examined.
	Datasets int
	// Shipped counts node-to-node snapshot transfers that filled a
	// desired replica.
	Shipped int
	// Deleted counts surplus copies removed from nodes no longer in a
	// dataset's replica set.
	Deleted int
	// Lost lists datasets with no reachable copy anywhere — nothing to
	// ship from. They need a fresh upload.
	Lost []string
	// Errors collects per-dataset failures that left the pass
	// incomplete for that id (the others still proceed).
	Errors []string
}

// Rebalance moves every tracked dataset onto its current replica set:
// for each id it finds the nodes actually holding a copy, ships
// snapshots node-to-node into desired replicas that lack one, and —
// once the desired set is fully populated — deletes surplus copies
// from nodes the ring no longer assigns. Keys never transit the
// client.
//
// The pass is idempotent and crash-safe: it only deletes a copy after
// every desired replica confirms one, so interrupting it can leave
// surplus copies (cleaned by the next pass, or by TTL) but never a
// shortfall it created.
func (r *Router) Rebalance(ctx context.Context) (RebalanceReport, error) {
	var rep RebalanceReport
	allNodes := r.nodes()
	for _, id := range r.Datasets() {
		rep.Datasets++
		desired := r.Place(id)
		want := make(map[string]bool, len(desired))
		for _, n := range desired {
			want[n] = true
		}

		// Census: which nodes hold a copy right now? Info is
		// kind-independent, so the int64 handle serves every kind.
		holders := make(map[string]bool, len(desired))
		var censusErr error
		for _, node := range allNodes {
			if !r.alive(node) {
				continue
			}
			c := r.Client(node)
			if c == nil { // node removed by a concurrent SetNodes
				continue
			}
			_, err := parselclient.Keyed[int64](c).Dataset(id).Info(ctx)
			switch {
			case err == nil:
				holders[node] = true
			case errors.Is(err, parselclient.ErrDatasetNotFound):
				// not here — fine
			default:
				if parselclient.Retryable(err) {
					r.markDown(node, err)
				}
				censusErr = err
			}
		}
		if len(holders) == 0 {
			if censusErr != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: census: %v", id, censusErr))
			} else {
				rep.Lost = append(rep.Lost, id)
			}
			continue
		}

		// Fill desired replicas that lack a copy. Prefer shipping from
		// a holder that is itself desired (it keeps its copy — the read
		// load spreads), fall back to any holder.
		sources := make([]string, 0, len(holders))
		for _, n := range desired {
			if holders[n] {
				sources = append(sources, n)
			}
		}
		var surplus []string
		for n := range holders {
			if !want[n] {
				surplus = append(surplus, n)
			}
		}
		sort.Strings(surplus)
		sources = append(sources, surplus...)
		filled := true
		for _, dst := range desired {
			if holders[dst] {
				continue
			}
			var shipErr error
			shipped := false
			dstC := r.Client(dst)
			if dstC == nil { // placement raced a SetNodes; next pass recomputes
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: ship to %s: node no longer in fleet", id, dst))
				filled = false
				continue
			}
			for _, src := range sources {
				if src == dst {
					continue
				}
				srcC := r.Client(src)
				if srcC == nil {
					continue
				}
				_, err := srcC.ShipSnapshot(ctx, id, dstC)
				if err == nil {
					holders[dst] = true
					shipped = true
					r.bump(&r.shipped)
					rep.Shipped++
					r.log.Info("cluster: rebalance: shipped", "dataset", id, "src", src, "dst", dst)
					break
				}
				shipErr = err
				r.markShipDown(src, dst, err)
			}
			if !shipped {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: ship to %s: %v", id, dst, shipErr))
				filled = false
			}
		}

		// Only once every desired replica holds a copy is a surplus
		// copy safe to drop.
		if !filled {
			continue
		}
		for _, node := range surplus {
			c := r.Client(node)
			if c == nil { // departed the fleet along with its surplus copy
				continue
			}
			_, err := parselclient.Keyed[int64](c).Dataset(id).Delete(ctx)
			if err != nil && !errors.Is(err, parselclient.ErrDatasetNotFound) {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: delete surplus on %s: %v", id, node, err))
				continue
			}
			rep.Deleted++
			r.log.Info("cluster: rebalance: dropped surplus", "dataset", id, "node", node)
		}
	}
	return rep, nil
}
