package partition

// Routed mutations. A graph's ID determines its owning partition, so an
// append touches exactly the partitions its batch hashes to and a removal
// touches exactly the partitions owning the removed IDs — the rest of the
// dataset is never locked, scanned or re-indexed. Within a partition the
// engine's own copy-on-write mutation path applies (O(delta), concurrent
// with that partition's queries), and maintains the partition's one index
// and the caches of both query modes together.
//
// The whole batch is validated before any partition is touched (unknown or
// duplicate IDs, a removal that would empty a partition), so a rejected
// call leaves the group unchanged. ctx is observed before the mutation
// begins; once underway every routed application completes (mirroring the
// engine's own mutation contract).

import (
	"context"
	"errors"
	"fmt"

	igq "repro"
)

// AddGraphs appends graphs, each routed to the partition owning its ID.
// IDs must be unique within the batch and previously unknown to the group.
func (g *Group) AddGraphs(ctx context.Context, gs []*igq.Graph) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(gs) == 0 {
		return errors.New("partition: no graphs to add")
	}
	if err := checkIDs(gs); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	parts := *g.parts.Load()
	n := len(parts)
	byPart := make([][]*igq.Graph, n)
	for _, ng := range gs {
		p := PartitionOf(ng.ID, n)
		byPart[p] = append(byPart[p], ng)
	}
	// Collision check scans only the owning partitions: the routing
	// invariant (every graph lives in the partition its ID hashes to)
	// means a duplicate ID could live nowhere else.
	for p, batch := range byPart {
		if len(batch) == 0 {
			continue
		}
		fresh := make(map[int]struct{}, len(batch))
		for _, ng := range batch {
			fresh[ng.ID] = struct{}{}
		}
		for _, old := range parts[p].Dataset() {
			if _, dup := fresh[old.ID]; dup {
				return fmt.Errorf("partition: graph ID %d already present", old.ID)
			}
		}
	}
	for p, batch := range byPart {
		if len(batch) == 0 {
			continue
		}
		// Background ctx: the first routed application commits the group
		// mutation; the rest must follow (see package comment).
		if err := parts[p].AddGraphs(context.Background(), batch); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	return nil
}

// RemoveGraphs removes the graphs with the given global IDs, each routed
// to its owning partition. Unknown or duplicate IDs reject the whole
// batch, as does a removal that would empty a partition (an engine cannot
// serve an empty dataset — rebalance to fewer partitions instead).
func (g *Group) RemoveGraphs(ctx context.Context, ids []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ids) == 0 {
		return errors.New("partition: no graph IDs to remove")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	parts := *g.parts.Load()
	n := len(parts)
	seen := make(map[int]struct{}, len(ids))
	byPart := make([][]int, n) // positions within the owning partition
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("partition: duplicate graph ID %d in removal batch", id)
		}
		seen[id] = struct{}{}
		p := PartitionOf(id, n)
		pos := -1
		for i, old := range parts[p].Dataset() {
			if old.ID == id {
				pos = i
				break
			}
		}
		if pos < 0 {
			return fmt.Errorf("partition: no graph with ID %d", id)
		}
		byPart[p] = append(byPart[p], pos)
	}
	for p, positions := range byPart {
		if len(positions) >= len(parts[p].Dataset()) && len(positions) > 0 {
			return fmt.Errorf("partition: removal would empty partition %d — rebalance to fewer partitions first", p)
		}
	}
	for p, positions := range byPart {
		if len(positions) == 0 {
			continue
		}
		if err := parts[p].RemoveGraphs(context.Background(), positions); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	return nil
}
