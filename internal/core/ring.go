package core

import (
	"fmt"

	"iroram/internal/block"
)

// ringState implements Ring ORAM (Ren et al., "Ring ORAM: Closing the Gap
// Between Small and Large Client Storage Oblivious RAM"), which Section VII
// of the paper cites as orthogonal to IR-ORAM. The protocol splits reads
// from evictions:
//
//   - a read touches ONE block per bucket — the target where present, an
//     unconsumed dummy elsewhere — so a read path moves L blocks instead of
//     L*Z;
//   - each bucket holds RingS dummies; after RingS reads it must be
//     reshuffled (read and rewritten whole) before serving again — the
//     "early reshuffle";
//   - every RingA reads, one full eviction path (read+write of every slot,
//     reverse-lexicographic leaf order) drains the stash and replenishes
//     dummies along that path.
//
// The bucket-size profile still applies, so IR-Alloc composes: smaller
// middle buckets shrink eviction paths and reshuffles exactly as they
// shrink Path ORAM paths (the integration claim this repo demonstrates in
// the "ring" experiment).
type ringState struct {
	s int // dummy budget per bucket
	a int // reads per eviction path

	// dummyLeft tracks unconsumed dummies per memory-resident bucket,
	// heap-indexed like the tree (level l, index i -> 2^l + i).
	dummyLeft []uint8

	sinceEvict int
	evictSeq   uint64

	// Reshuffles and EvictPaths count the background work the protocol
	// amortizes over reads.
	Reshuffles uint64
	EvictPaths uint64
}

func (c *Controller) initRing() {
	c.ring = &ringState{
		s:         c.cfg.Scheme.RingS,
		a:         c.cfg.Scheme.RingA,
		dummyLeft: make([]uint8, uint64(1)<<uint(c.o.Levels)),
	}
	for i := range c.ring.dummyLeft {
		c.ring.dummyLeft[i] = uint8(c.ring.s)
	}
}

func (r *ringState) bucket(levels, level int, leaf block.Leaf) int {
	idx := uint64(leaf) >> (uint(levels-1) - uint(level))
	return int((uint64(1) << uint(level)) + idx)
}

// ringAccess is Ring ORAM's read: one block per memory bucket, early
// reshuffles where a bucket's dummies ran out, and the amortized eviction
// path every RingA reads. It fills the same contract as pathAccess;
// foundLevel is the targetLevel the protocol resolves up front anyway.
func (c *Controller) ringAccess(now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, foundLevel int, done uint64) {
	r := c.ring
	targetLevel := -1
	if target.Valid() {
		if lvl, ok := c.tr.Find(target, leaf); ok {
			targetLevel = lvl
		}
	}

	// The whole read — bucket bases plus reshuffle re-reads — is one
	// address list issued at one cycle, so run-length service is exact.
	c.physBuf = c.physBuf[:0]
	writes := 0
	for l := c.minLevel; l < c.o.Levels; l++ {
		base, z := c.layout.BucketPhys(l, leaf)
		// One block leaves this bucket: the target, or a dummy.
		c.physBuf = append(c.physBuf, base)
		b := r.bucket(c.o.Levels, l, leaf)
		if l == targetLevel {
			// Reading a real block consumes it (it moves to the stash);
			// the dummy budget is untouched.
			continue
		}
		if r.dummyLeft[b] > 0 {
			r.dummyLeft[b]--
		}
		if r.dummyLeft[b] == 0 {
			// Early reshuffle: the bucket is read and rewritten whole
			// (its real blocks stay in place, permuted and re-sealed).
			for j := 0; j < z+r.s; j++ {
				c.physBuf = append(c.physBuf, base+uint64(j%z))
			}
			writes += z + r.s
			r.dummyLeft[b] = uint8(r.s)
			r.Reshuffles++
		}
	}
	reads := len(c.physBuf)
	readDone := c.mem.ServicePath(now, c.physBuf, 0, false)
	c.st.PhaseReadCycles += readDone - now
	if targetLevel >= 0 {
		if !c.tr.Remove(target, leaf) {
			panic(fmt.Sprintf("core: ring target %v vanished from level %d", target, targetLevel))
		}
		found = true
	}
	// Reshuffle writes and nothing else; posted like Path ORAM's write
	// phase.
	if writes > 0 {
		c.physBuf = c.physBuf[:0]
		base, _ := c.layout.BucketPhys(c.o.Levels-1, leaf)
		for j := 0; j < writes; j++ {
			c.physBuf = append(c.physBuf, base+uint64(j))
		}
		c.mem.PostWritePath(readDone, c.physBuf, 0)
	}
	c.st.Paths.Add(ptype, reads, writes)
	done = readDone + c.o.OnChipLatency
	c.st.PathLatency[ptype].Observe(done - now)

	// Amortized eviction: every RingA reads, one full path. Evictions are
	// the protocol's background work — they are issued behind this read
	// and charged to the channel buses (delaying whatever comes next), but
	// the requester does not wait for them.
	r.sinceEvict++
	if r.sinceEvict >= r.a {
		r.sinceEvict = 0
		c.ringEvictPath(done)
	}
	return found, targetLevel, done
}

// ringEvictPath is a full Path ORAM-style read+write of the next
// reverse-lexicographic path: it drains the stash into the tree and
// replenishes every touched bucket's dummy budget.
func (c *Controller) ringEvictPath(now uint64) uint64 {
	r := c.ring
	leaf := c.reverseLexLeaf(r.evictSeq)
	r.evictSeq++
	r.EvictPaths++
	// The eviction path moves Z+S blocks per bucket in both directions;
	// account the dummy slots on top of what pathAccess charges (Z each
	// way) so the traffic matches the protocol.
	_, _, done := c.pathAccess(&c.pathTree, now, leaf, block.Invalid, block.PathEvict)
	extra := (c.o.Levels - c.minLevel) * r.s
	c.st.Paths.BlocksRead += uint64(extra)
	c.st.Paths.BlocksWrit += uint64(extra)
	c.physBuf = c.physBuf[:0]
	base, _ := c.layout.BucketPhys(c.o.Levels-1, leaf)
	for j := 0; j < extra; j++ {
		c.physBuf = append(c.physBuf, base+uint64(j))
	}
	done = c.mem.ServicePath(done, c.physBuf, 0, false)
	c.mem.PostWritePath(done, c.physBuf, 0)
	// Replenish dummies along the path.
	for l := c.minLevel; l < c.o.Levels; l++ {
		r.dummyLeft[r.bucket(c.o.Levels, l, leaf)] = uint8(r.s)
	}
	return done + c.o.OnChipLatency
}

// reverseLexLeaf maps the eviction counter to the reverse-lexicographic
// leaf order Ring ORAM (and Onion/others) use: bit-reverse the counter in
// the leaf-index width, which spreads consecutive evictions across disjoint
// subtrees.
func (c *Controller) reverseLexLeaf(seq uint64) block.Leaf {
	bits := uint(c.o.Levels - 1)
	var rev uint64
	for i := uint(0); i < bits; i++ {
		rev = (rev << 1) | ((seq >> i) & 1)
	}
	return block.Leaf(rev % c.o.LeafCount())
}
