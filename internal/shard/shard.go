package shard

import (
	"fmt"
	"sort"
	"sync"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// Options configures a Coordinator.
type Options struct {
	// Clock times the per-shard work; nil means the system clock.
	Clock clock.Clock
	// Metrics, when non-nil, receives coordinator counters.
	Metrics *Metrics
}

// shardState is one validator shard: its slice of the fleet (ascending
// device order) and its own generation-cached FIB source. The source is
// mutex-guarded, so a thief worker can validate this shard's devices
// through it concurrently with the owner.
type shardState struct {
	devices []topology.DeviceID
	synth   *bgp.Synth
}

// Coordinator partitions the fleet across N validator shards by
// consistent hashing over the Clos pod structure — whole pods (and spine
// planes, and regional spines) land on one shard, preserving the table
// locality the per-shard FIB caches exploit — and runs the device sets
// it is handed on a work-stealing pool. It does placement and execution
// only: the caller (the engine's delta path) decides which devices to
// revalidate, supplies the facts, contracts and checker, and splices the
// results into its cached report.
//
// Coordinator implements rcdc.Runner. It is safe for concurrent use.
type Coordinator struct {
	opts   Options
	ring   *Ring
	shards []*shardState
	owner  []int // shard index by device ID
}

// New builds a coordinator of n shards over the topology and config map.
// The config map is shared with the caller (the engine mutates it under
// its own lock; runs observe it through the journaled generation).
func New(topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig, n int, opts Options) *Coordinator {
	c := &Coordinator{opts: opts, ring: NewRing(n), owner: make([]int, len(topo.Devices))}
	c.shards = make([]*shardState, c.ring.Shards())
	for i := range c.shards {
		synth := bgp.NewSynth(topo, cfg)
		synth.EnableTableCache()
		c.shards[i] = &shardState{synth: synth}
	}
	for i := range topo.Devices {
		d := &topo.Devices[i]
		s := c.ring.Shard(PartitionKey(d))
		c.owner[d.ID] = s
		c.shards[s].devices = append(c.shards[s].devices, d.ID)
	}
	for i, s := range c.shards {
		opts.Metrics.observeAssignment(i, len(s.devices))
	}
	return c
}

// PartitionKey returns the ring key a device is placed by: its pod for
// ToRs and leaves, its plane for spines, its index for regional spines.
// Hashing structural units instead of devices keeps each pod's FIBs —
// which share most of their routes — on one shard's table cache.
func PartitionKey(d *topology.Device) string {
	switch d.Role {
	case topology.RoleToR, topology.RoleLeaf:
		return fmt.Sprintf("pod-%d", d.Cluster)
	case topology.RoleSpine:
		return fmt.Sprintf("plane-%d", d.Plane)
	default:
		return fmt.Sprintf("rs-%d", d.Index)
	}
}

// Shards returns the partition width.
func (c *Coordinator) Shards() int { return c.ring.Shards() }

// Devices returns shard i's slice of the fleet in ascending device order.
func (c *Coordinator) Devices(i int) []topology.DeviceID {
	return append([]topology.DeviceID(nil), c.shards[i].devices...)
}

// Run validates work (the rcdc.Runner hook): each device scope goes to
// its owning shard's queue and is checked by v.CheckScope against the
// owner's FIB source. An empty set runs nothing. Reports come back in
// ascending device order, errors alongside, exactly as from the
// validator's own pool.
func (c *Coordinator) Run(v *rcdc.Validator, facts *metadata.Facts, gen *contracts.Generator,
	work []rcdc.Scope) ([]rcdc.DeviceReport, []error) {
	if len(work) == 0 {
		return nil, nil
	}
	owned := make([][]rcdc.Scope, len(c.shards))
	for _, sc := range work {
		o := c.owner[sc.Device]
		owned[o] = append(owned[o], sc)
	}
	queues := make([]*deque, len(c.shards))
	for i, s := range c.shards {
		s.synth.Refresh()
		queues[i] = &deque{}
		for _, ch := range chunked(i, owned[i]) {
			queues[i].push(ch)
		}
	}
	return c.drain(v, facts, gen, queues)
}

// drain empties the per-shard queues with the stealing pool: worker i
// owns queue i (popping newest-first), and when its queue drains it
// steals oldest-first from the other shards, so a skewed partition or a
// slow shard cannot serialize the run. Every chunk is validated against
// its owning shard's FIB source — the sources and a memoizing contract
// generator are mutex-guarded, so cross-shard execution is safe.
func (c *Coordinator) drain(v *rcdc.Validator, facts *metadata.Facts, gen *contracts.Generator,
	queues []*deque) ([]rcdc.DeviceReport, []error) {
	var (
		outMu sync.Mutex
		reps  []rcdc.DeviceReport
		errs  []error
	)
	var wg sync.WaitGroup
	for w := range queues {
		wg.Add(1)
		go func(home int) {
			defer wg.Done()
			for {
				ch, ok := queues[home].popBottom()
				for off := 1; !ok && off < len(queues); off++ {
					ch, ok = queues[(home+off)%len(queues)].stealTop()
				}
				if !ok {
					return
				}
				if ch.owner != home {
					c.opts.Metrics.steal()
				}
				chunkStart := clock.Or(c.opts.Clock).Now()
				src := c.shards[ch.owner].synth
				for _, sc := range ch.work {
					rep, err := v.CheckScope(facts, gen, src, sc)
					outMu.Lock()
					if err != nil {
						errs = append(errs, err)
					} else {
						reps = append(reps, rep)
					}
					outMu.Unlock()
				}
				c.opts.Metrics.observeShard(ch.owner, clock.Since(c.opts.Clock, chunkStart))
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(reps, func(i, j int) bool { return reps[i].Device < reps[j].Device })
	return reps, errs
}
