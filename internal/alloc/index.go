package alloc

// The placement index: the columnar engine's O(log S) answer to the
// oracle's scan. The oracle (pick in oracle.go) scans every server of a
// pool per placement, making a sweep O(VMs x servers); production
// allocators index their candidate sets instead (Protean). This index
// answers every policy query in O(log S) and absorbs a place or
// release in O(log S), while remaining decision-identical to the scan
// — the differential, property, and fuzz suites prove it, and the
// audit layer cross-checks it on every audited placement.
//
// Two structures per pool, both keyed on exact float64 free capacity
// (scaled requests make free cores fractional, and place/release pairs
// leave sub-SimTol float drift, so integer-granular buckets would not
// reproduce the scan's comparisons bit-for-bit):
//
//   - A treap per occupancy class (non-empty / empty) ordered by
//     (coresFree, memFree, id), augmented with the subtree maximum of
//     memFree. BestFit is the leftmost feasible key (least cores, then
//     least memory, then first index — the scan's exact order);
//     WorstFit is the rightmost feasible key re-anchored to the first
//     index of its (cores, mem) tie group. The occupancy split makes
//     PreferNonEmpty a query on one root with fallback to the other.
//   - A segment tree over server indices holding per-class maxima of
//     (coresFree, memFree) plus a count of empty servers. FirstFit is
//     the leftmost feasible leaf; full-node placement is the leftmost
//     feasible (or, for multi-pool, leftmost unconditional) empty leaf.
//
// ixCore knows servers only as ids with (coresFree, memFree,
// occupancy) keys: the columnar fleet (colsim.go) attaches ids straight
// from its parallel arrays, growing the core as its touched frontier
// advances. Every structure is backed by slices; steady-state
// operations perform zero heap allocations (pinned by
// TestIndexedPickZeroAllocs).

import (
	"math"

	"github.com/greensku/gsf/internal/audit"
)

const nilNode = int32(-1)

var negInf = math.Inf(-1)

// treapNode is one server's node in its pool's occupancy treap. The
// key (cores, mem, id) is a copy of the server's free capacity, kept
// exact by detaching before and re-attaching after every mutation.
type treapNode struct {
	left, right int32
	prio        uint32
	cores, mem  float64
	// maxMem is the maximum mem over the node's subtree, the pruning
	// bound for feasibility (memFree >= request) searches.
	maxMem float64
	// ne records which occupancy treap currently holds the node.
	ne bool
}

// segNode aggregates a range of server indices: per-occupancy-class
// maxima of free capacity (negInf when the class is absent) and the
// count of empty servers.
type segNode struct {
	coresNE, memNE float64
	coresE, memE   float64
	cntE           int32
}

// emptySeg is the identity element of the segment-tree combine.
var emptySeg = segNode{coresNE: negInf, memNE: negInf, coresE: negInf, memE: negInf}

// ixCore indexes a pool of server ids for O(log S) placement. It holds
// no server representation of its own: callers attach and detach ids
// with explicit (cores, mem, occupancy) keys. Capacity grows on
// demand (grow), so a sparse pool — the columnar fleet's touched
// prefix — pays only for the ids it has materialized.
type ixCore struct {
	nodes   []treapNode
	rootNE  int32
	rootE   int32
	seg     []segNode
	segSize int32
}

// prioOf derives a fixed, deterministic treap priority from a server
// index (splitmix64 finalizer), so tree shapes are reproducible.
func prioOf(id int32) uint32 {
	z := uint64(id)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32(z ^ (z >> 31))
}

// initCore readies the core for exactly n ids.
func (ix *ixCore) initCore(n int) {
	segSize := int32(1)
	for int(segSize) < n {
		segSize <<= 1
	}
	ix.nodes = make([]treapNode, n)
	for i := range ix.nodes {
		ix.nodes[i].prio = prioOf(int32(i))
	}
	ix.rootNE, ix.rootE = nilNode, nilNode
	ix.seg = make([]segNode, 2*segSize)
	for i := range ix.seg {
		ix.seg[i] = emptySeg
	}
	ix.segSize = segSize
}

// grow extends the core to hold ids [0, n). Node slots append in
// amortized O(1); when n outgrows the segment tree, the tree doubles
// and rebuilds in O(n) — amortized O(1) per added id. Detached (never
// attached) slots are inert: their leaves stay at the identity and
// their treap nodes are untracked.
func (ix *ixCore) grow(n int32) {
	for int32(len(ix.nodes)) < n {
		ix.nodes = append(ix.nodes, treapNode{prio: prioOf(int32(len(ix.nodes)))})
	}
	if n <= ix.segSize {
		return
	}
	newSize := ix.segSize
	if newSize == 0 {
		newSize = 1
		ix.rootNE, ix.rootE = nilNode, nilNode
	}
	for newSize < n {
		newSize <<= 1
	}
	old := ix.seg
	oldSize := ix.segSize
	ix.seg = make([]segNode, 2*newSize)
	for i := range ix.seg {
		ix.seg[i] = emptySeg
	}
	if oldSize > 0 {
		copy(ix.seg[newSize:], old[oldSize:])
	}
	for i := newSize - 1; i >= 1; i-- {
		ix.seg[i] = combineSeg(&ix.seg[2*i], &ix.seg[2*i+1])
	}
	ix.segSize = newSize
}

// keyLess orders nodes by (cores, mem, id) ascending — exactly the
// scan's BestFit preference order, with first-index tie-breaking.
func (ix *ixCore) keyLess(a, b int32) bool {
	na, nb := &ix.nodes[a], &ix.nodes[b]
	if na.cores != nb.cores {
		return na.cores < nb.cores
	}
	if na.mem != nb.mem {
		return na.mem < nb.mem
	}
	return a < b
}

// pull recomputes a node's subtree maxMem from its children.
func (ix *ixCore) pull(n int32) {
	nd := &ix.nodes[n]
	mm := nd.mem
	if nd.left != nilNode {
		if lm := ix.nodes[nd.left].maxMem; lm > mm {
			mm = lm
		}
	}
	if nd.right != nilNode {
		if rm := ix.nodes[nd.right].maxMem; rm > mm {
			mm = rm
		}
	}
	nd.maxMem = mm
}

func (ix *ixCore) rotateRight(n int32) int32 {
	l := ix.nodes[n].left
	ix.nodes[n].left = ix.nodes[l].right
	ix.nodes[l].right = n
	ix.pull(n)
	ix.pull(l)
	return l
}

func (ix *ixCore) rotateLeft(n int32) int32 {
	r := ix.nodes[n].right
	ix.nodes[n].right = ix.nodes[r].left
	ix.nodes[r].left = n
	ix.pull(n)
	ix.pull(r)
	return r
}

func (ix *ixCore) insertNode(root, n int32) int32 {
	if root == nilNode {
		return n
	}
	rd := &ix.nodes[root]
	if ix.keyLess(n, root) {
		rd.left = ix.insertNode(rd.left, n)
		if ix.nodes[rd.left].prio > rd.prio {
			return ix.rotateRight(root)
		}
	} else {
		rd.right = ix.insertNode(rd.right, n)
		if ix.nodes[rd.right].prio > rd.prio {
			return ix.rotateLeft(root)
		}
	}
	ix.pull(root)
	return root
}

func (ix *ixCore) mergeNodes(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	if ix.nodes[a].prio >= ix.nodes[b].prio {
		ix.nodes[a].right = ix.mergeNodes(ix.nodes[a].right, b)
		ix.pull(a)
		return a
	}
	ix.nodes[b].left = ix.mergeNodes(a, ix.nodes[b].left)
	ix.pull(b)
	return b
}

func (ix *ixCore) deleteNode(root, n int32) int32 {
	if root == nilNode {
		panic("alloc: placement index lost track of a server")
	}
	if root == n {
		return ix.mergeNodes(ix.nodes[n].left, ix.nodes[n].right)
	}
	rd := &ix.nodes[root]
	if ix.keyLess(n, root) {
		rd.left = ix.deleteNode(rd.left, n)
	} else {
		rd.right = ix.deleteNode(rd.right, n)
	}
	ix.pull(root)
	return root
}

// detachID removes an id from the index ahead of a mutation of its
// free capacity or occupancy; attachID re-inserts it afterwards.
func (ix *ixCore) detachID(n int32) {
	if ix.nodes[n].ne {
		ix.rootNE = ix.deleteNode(ix.rootNE, n)
	} else {
		ix.rootE = ix.deleteNode(ix.rootE, n)
	}
}

func (ix *ixCore) attachID(n int32, cores, mem float64, ne bool) {
	nd := &ix.nodes[n]
	nd.left, nd.right = nilNode, nilNode
	nd.cores, nd.mem, nd.maxMem = cores, mem, mem
	nd.ne = ne
	if ne {
		ix.rootNE = ix.insertNode(ix.rootNE, n)
	} else {
		ix.rootE = ix.insertNode(ix.rootE, n)
	}
	ix.segSet(n, cores, mem, ne)
}

// segSet rewrites an id's segment-tree leaf and bubbles the change to
// the root.
func (ix *ixCore) segSet(id int32, cores, mem float64, ne bool) {
	i := ix.segSize + id
	sn := &ix.seg[i]
	if ne {
		*sn = segNode{coresNE: cores, memNE: mem, coresE: negInf, memE: negInf}
	} else {
		*sn = segNode{coresNE: negInf, memNE: negInf, coresE: cores, memE: mem, cntE: 1}
	}
	for i >>= 1; i >= 1; i >>= 1 {
		ix.seg[i] = combineSeg(&ix.seg[2*i], &ix.seg[2*i+1])
	}
}

func combineSeg(l, r *segNode) segNode {
	return segNode{
		coresNE: fmax(l.coresNE, r.coresNE),
		memNE:   fmax(l.memNE, r.memNE),
		coresE:  fmax(l.coresE, r.coresE),
		memE:    fmax(l.memE, r.memE),
		cntE:    l.cntE + r.cntE,
	}
}

func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// leftmostFeasible returns the node with the smallest (cores, mem, id)
// key among nodes with cores >= c and mem >= m, or nilNode. Keys with
// cores >= c form a suffix of the key order, so the walk tracks the
// suffix boundary and uses maxMem to prune; at most one full downward
// probe succeeds, keeping the query O(log S). All comparisons are
// written positively so non-finite requests (never feasible for the
// scan) are never feasible here either.
func (ix *ixCore) leftmostFeasible(n int32, c, m float64) int32 {
	if n == nilNode {
		return nilNode
	}
	nd := &ix.nodes[n]
	if !(nd.maxMem >= m) {
		return nilNode
	}
	if !(nd.cores >= c) {
		// The node and its whole left subtree sit below the cores cut.
		return ix.leftmostFeasible(nd.right, c, m)
	}
	if r := ix.leftmostFeasible(nd.left, c, m); r != nilNode {
		return r
	}
	if nd.mem >= m {
		return n
	}
	// Everything right of here already satisfies cores >= c.
	return ix.leftmostMem(nd.right, m)
}

// leftmostMem returns the leftmost (key-order) node with mem >= m.
func (ix *ixCore) leftmostMem(n int32, m float64) int32 {
	if n == nilNode || !(ix.nodes[n].maxMem >= m) {
		return nilNode
	}
	nd := &ix.nodes[n]
	if r := ix.leftmostMem(nd.left, m); r != nilNode {
		return r
	}
	if nd.mem >= m {
		return n
	}
	return ix.leftmostMem(nd.right, m)
}

// rightmostMem returns the rightmost (key-order) node with mem >= m.
func (ix *ixCore) rightmostMem(n int32, m float64) int32 {
	if n == nilNode || !(ix.nodes[n].maxMem >= m) {
		return nilNode
	}
	nd := &ix.nodes[n]
	if r := ix.rightmostMem(nd.right, m); r != nilNode {
		return r
	}
	if nd.mem >= m {
		return n
	}
	return ix.rightmostMem(nd.left, m)
}

// lowerBound returns the leftmost node with key >= (c, m, -inf).
func (ix *ixCore) lowerBound(root int32, c, m float64) int32 {
	res := nilNode
	for n := root; n != nilNode; {
		nd := &ix.nodes[n]
		if nd.cores > c || (nd.cores == c && nd.mem >= m) {
			res = n
			n = nd.left
		} else {
			n = nd.right
		}
	}
	return res
}

// worstFeasible returns the feasible node preferred by (fixed)
// WorstFit: most free cores, then most free memory, then first index.
// The rightmost node with mem >= m maximises (cores, mem) over every
// feasible server; re-anchoring to the lower bound of its (cores, mem)
// group recovers the scan's first-index tie-break.
func (ix *ixCore) worstFeasible(root int32, c, m float64) int32 {
	r := ix.rightmostMem(root, m)
	if r == nilNode || !(ix.nodes[r].cores >= c) {
		return nilNode
	}
	return ix.lowerBound(root, ix.nodes[r].cores, ix.nodes[r].mem)
}

// segFirst returns the lowest server index whose free capacity
// dominates (c, m), restricted to the requested occupancy classes, or
// nilNode. Class maxima can over-approximate (the cores and mem maxima
// of a range may come from different servers), so the descent
// backtracks; leaf checks are exact.
func (ix *ixCore) segFirst(i int32, c, m float64, wantNE, wantE bool) int32 {
	sn := &ix.seg[i]
	if !((wantNE && sn.coresNE >= c && sn.memNE >= m) || (wantE && sn.coresE >= c && sn.memE >= m)) {
		return nilNode
	}
	if i >= ix.segSize {
		return i - ix.segSize
	}
	if r := ix.segFirst(2*i, c, m, wantNE, wantE); r != nilNode {
		return r
	}
	return ix.segFirst(2*i+1, c, m, wantNE, wantE)
}

// segFirstEmpty returns the lowest index of an empty server with no
// capacity condition (the multi-pool full-node rule), or nilNode.
func (ix *ixCore) segFirstEmpty() int32 {
	if ix.segSize == 0 || ix.seg[1].cntE == 0 {
		return nilNode
	}
	i := int32(1)
	for i < ix.segSize {
		if ix.seg[2*i].cntE > 0 {
			i = 2 * i
		} else {
			i = 2*i + 1
		}
	}
	return i - ix.segSize
}

// pickClass selects the policy-preferred feasible server within one
// occupancy class, or nilNode.
func (ix *ixCore) pickClass(cores, mem float64, pol Policy, nonEmpty bool) int32 {
	root := ix.rootE
	if nonEmpty {
		root = ix.rootNE
	}
	switch pol {
	case BestFit:
		return ix.leftmostFeasible(root, cores, mem)
	case WorstFit:
		return ix.worstFeasible(root, cores, mem)
	default: // FirstFit and unknown policies: earliest index wins.
		if ix.segSize == 0 {
			return nilNode
		}
		return ix.segFirst(1, cores, mem, nonEmpty, !nonEmpty)
	}
}

// pickNode selects the feasible id under the configured policy,
// decision-identically to the oracle's scan over the attached ids.
func (ix *ixCore) pickNode(cores, mem float64, pol Policy, preferNonEmpty bool) int32 {
	if preferNonEmpty {
		if n := ix.pickClass(cores, mem, pol, true); n != nilNode {
			return n
		}
		return ix.pickClass(cores, mem, pol, false)
	}
	switch pol {
	case BestFit:
		a := ix.leftmostFeasible(ix.rootNE, cores, mem)
		b := ix.leftmostFeasible(ix.rootE, cores, mem)
		return ix.minKey(a, b)
	case WorstFit:
		a := ix.worstFeasible(ix.rootNE, cores, mem)
		b := ix.worstFeasible(ix.rootE, cores, mem)
		return ix.maxKeyFirstIdx(a, b)
	default:
		if ix.segSize == 0 {
			return nilNode
		}
		return ix.segFirst(1, cores, mem, true, true)
	}
}

// firstEmptyFittingNode returns the lowest id of an empty server that
// fits (cores, mem), or nilNode — the single-pool full-node rule.
func (ix *ixCore) firstEmptyFittingNode(cores, mem float64) int32 {
	if ix.segSize == 0 {
		return nilNode
	}
	return ix.segFirst(1, cores, mem, false, true)
}

// minKey combines per-class BestFit winners: smallest (cores, mem, id).
func (ix *ixCore) minKey(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	if ix.keyLess(a, b) {
		return a
	}
	return b
}

// maxKeyFirstIdx combines per-class WorstFit winners: largest
// (cores, mem), then smallest index.
func (ix *ixCore) maxKeyFirstIdx(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	na, nb := &ix.nodes[a], &ix.nodes[b]
	if na.cores != nb.cores {
		if na.cores > nb.cores {
			return a
		}
		return b
	}
	if na.mem != nb.mem {
		if na.mem > nb.mem {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}

// auditIntegrityCore walks the whole index and reports any structural
// drift against the live pool state (supplied per id by state) to the
// audit layer: treap ordering and heap shape, augmentation sums,
// occupancy classification, key staleness, segment-tree maxima and
// empty counts, and that every one of the n attached ids is indexed
// exactly once. The conservation audit calls it so audited
// simulations verify the index itself, not just the pool.
func (ix *ixCore) auditIntegrityCore(chk audit.Checker, pool string, n int32, state func(id int32) (cores, mem float64, ne bool)) {
	if chk == nil || ix == nil {
		return
	}
	seen := make([]bool, n)
	count := int32(0)
	var walk func(nd int32, ne bool, prioCap uint32) (lo, hi int32)
	walk = func(node int32, ne bool, prioCap uint32) (int32, int32) {
		nd := &ix.nodes[node]
		if nd.prio > prioCap {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: treap heap order violated at node %d", pool, node)
		}
		if node >= n || seen[node] {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: node %d out of range or indexed twice", pool, node)
			return node, node
		}
		seen[node] = true
		count++
		sc, sm, sne := state(node)
		if nd.cores != sc || nd.mem != sm {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: node %d key (%g, %g) stale vs server (%g, %g)",
				pool, node, nd.cores, nd.mem, sc, sm)
		}
		if nd.ne != ne || sne != ne {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: node %d (nonEmpty=%v) in wrong occupancy treap (ne=%v)", pool, node, sne, ne)
		}
		mm := nd.mem
		lo, hi := node, node
		if nd.left != nilNode {
			llo, lhi := walk(nd.left, ne, nd.prio)
			if !ix.keyLess(lhi, node) {
				audit.Failf(chk, "alloc", "index-integrity",
					"%s pool: treap key order violated left of node %d", pool, node)
			}
			if lm := ix.nodes[nd.left].maxMem; lm > mm {
				mm = lm
			}
			lo = llo
		}
		if nd.right != nilNode {
			rlo, rhi := walk(nd.right, ne, nd.prio)
			if !ix.keyLess(node, rlo) {
				audit.Failf(chk, "alloc", "index-integrity",
					"%s pool: treap key order violated right of node %d", pool, node)
			}
			if rm := ix.nodes[nd.right].maxMem; rm > mm {
				mm = rm
			}
			hi = rhi
		}
		if nd.maxMem != mm {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: node %d maxMem %g, recomputed %g", pool, node, nd.maxMem, mm)
		}
		return lo, hi
	}
	const maxPrio = ^uint32(0)
	if ix.rootNE != nilNode {
		walk(ix.rootNE, true, maxPrio)
	}
	if ix.rootE != nilNode {
		walk(ix.rootE, false, maxPrio)
	}
	if count != n {
		audit.Failf(chk, "alloc", "index-integrity",
			"%s pool: %d of %d servers indexed", pool, count, n)
	}
	// Segment tree: exact leaves for attached ids, identity leaves
	// beyond them, consistent internal combines.
	for i := int32(0); i < ix.segSize; i++ {
		sn := ix.seg[ix.segSize+i]
		want := emptySeg
		if i < n {
			sc, sm, sne := state(i)
			if sne {
				want.coresNE, want.memNE = sc, sm
			} else {
				want.coresE, want.memE, want.cntE = sc, sm, 1
			}
		}
		if sn != want {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: segment leaf %d stale: %+v, want %+v", pool, i, sn, want)
		}
	}
	for i := ix.segSize - 1; i >= 1; i-- {
		if want := combineSeg(&ix.seg[2*i], &ix.seg[2*i+1]); ix.seg[i] != want {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: segment node %d inconsistent with children", pool, i)
		}
	}
}
