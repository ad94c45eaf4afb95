package alloc

// Property tests for the columnar fleet and its placement index against
// two oracles: the linear scan (pick equality on every query) and a
// naive recompute of the index's own invariants (treap membership and
// ordering per occupancy class, done by sorting the touched servers).
// The fuzz harness in index_fuzz_test.go drives the same checks from
// arbitrary byte strings.

import (
	"sort"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/stats"
)

// indexClass is a deliberately small SKU so random workloads collide
// on free-capacity values and exercise every tie-break level.
func indexClass() ServerClass {
	return ServerClass{Name: "ix-test", Cores: 8, Memory: 64, LocalMemory: 64}
}

// opCores/opMem are the request quanta random and fuzzed workloads
// draw from: small discrete values to force ties, plus fractional ones
// (scaled requests) to force non-integral free capacities.
var (
	opCores = []float64{1, 2, 2.2, 3, 5.5}
	opMem   = []float64{4, 8, 8.8, 16, 24}
)

// mirrorPool is a columnar fleet under test mirrored by the oracle's
// server structs, mutated in lockstep.
type mirrorPool struct {
	f       fleet
	servers []*server
}

func newMirrorPool(class ServerClass, n int) *mirrorPool {
	p := &mirrorPool{f: newFleet(class, n)}
	p.servers = makeServers(&p.f.class, n)
	return p
}

// place commits a placement on server id through the fleet's
// detach/mutate/attach protocol, exactly as the simulator does, and on
// the mirror.
func (p *mirrorPool) place(id int32, c, m float64) {
	p.f.place(id, c, m, 0)
	s := p.servers[id]
	s.coresFree -= c
	s.memFree -= m
	s.vms++
}

func (p *mirrorPool) unplace(id int32, c, m float64) {
	p.f.release(id, c, m, 0)
	s := p.servers[id]
	s.coresFree += c
	s.memFree += m
	s.vms--
}

// inOrder appends the subtree's node ids in key order.
func inOrder(ix *ixCore, n int32, out *[]int32) {
	if n == nilNode {
		return
	}
	inOrder(ix, ix.nodes[n].left, out)
	*out = append(*out, n)
	inOrder(ix, ix.nodes[n].right, out)
}

// checkOracle rebuilds the index's claims naively from the mirror —
// which touched server belongs to which occupancy treap, and in what
// order — and verifies them, then runs the full structural integrity
// walk.
func checkOracle(t *testing.T, p *mirrorPool) {
	t.Helper()
	f := &p.f
	want := map[bool][]int32{}
	for id := int32(0); id < f.frontier; id++ {
		ne := p.servers[id].vms > 0
		want[ne] = append(want[ne], id)
	}
	for _, ne := range []bool{true, false} {
		ids := want[ne]
		sort.Slice(ids, func(i, j int) bool {
			a, b := p.servers[ids[i]], p.servers[ids[j]]
			if a.coresFree != b.coresFree {
				return a.coresFree < b.coresFree
			}
			if a.memFree != b.memFree {
				return a.memFree < b.memFree
			}
			return ids[i] < ids[j]
		})
		root := f.ix.rootE
		if ne {
			root = f.ix.rootNE
		}
		var got []int32
		inOrder(&f.ix, root, &got)
		if len(got) != len(ids) {
			t.Fatalf("occupancy treap (ne=%v) holds %d servers, oracle says %d", ne, len(got), len(ids))
		}
		for i := range got {
			if got[i] != ids[i] {
				t.Fatalf("occupancy treap (ne=%v) order diverges at %d: index %v, oracle %v", ne, i, got, ids)
			}
		}
	}
	rec := audit.NewRecorder()
	f.ix.auditIntegrityCore(rec, "oracle", f.frontier, f.state)
	if rec.Count() > 0 {
		t.Fatalf("index integrity violations: %v", rec.Violations())
	}
}

// comparePicks checks every query the simulator issues — all policies,
// both PreferNonEmpty settings, and the two full-node variants —
// against the oracle's scan, for one request.
func comparePicks(t *testing.T, p *mirrorPool, c, m float64) {
	t.Helper()
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		for _, prefer := range []bool{false, true} {
			got := p.f.pick(c, m, pol, prefer)
			if want := pick(p.servers, c, m, pol, prefer); got != want {
				t.Fatalf("pick(%g, %g, %v, preferNonEmpty=%v): fleet chose %d, scan chose %d",
					c, m, pol, prefer, got, want)
			}
		}
	}
	wantFit, wantAny := nilNode, nilNode
	for id, s := range p.servers {
		if s.vms != 0 {
			continue
		}
		if wantAny == nilNode {
			wantAny = int32(id)
		}
		if wantFit == nilNode && s.fits(c, m) {
			wantFit = int32(id)
		}
	}
	if got := p.f.firstEmptyFitting(c, m); got != wantFit {
		t.Fatalf("firstEmptyFitting(%g, %g): fleet chose %d, scan chose %d", c, m, got, wantFit)
	}
	if got := p.f.firstEmpty(); got != wantAny {
		t.Fatalf("firstEmpty: fleet chose %d, scan chose %d", got, wantAny)
	}
}

// TestIndexMatchesOracleRandomOps drives random place/release
// sequences and checks every fleet query against the scan after each
// mutation, with periodic full-structure oracle checks.
func TestIndexMatchesOracleRandomOps(t *testing.T) {
	type placement struct {
		id   int32
		c, m float64
	}
	for seed := uint64(1); seed <= 6; seed++ {
		r := stats.NewRNG(seed * 7919)
		p := newMirrorPool(indexClass(), 11)
		var live []placement
		steps := 600
		if testing.Short() {
			steps = 150
		}
		for step := 0; step < steps; step++ {
			if len(live) > 0 && r.Float64() < 0.45 {
				k := r.Intn(len(live))
				pl := live[k]
				p.unplace(pl.id, pl.c, pl.m)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				c := opCores[r.Intn(len(opCores))]
				m := opMem[r.Intn(len(opMem))]
				pol := Policy(r.Intn(3))
				if id := p.f.pick(c, m, pol, r.Intn(2) == 0); id != nilNode {
					p.place(id, c, m)
					live = append(live, placement{id, c, m})
				}
			}
			comparePicks(t, p, opCores[step%len(opCores)], opMem[step%len(opMem)])
			if step%40 == 0 {
				comparePicks(t, p, 0, 0)
				comparePicks(t, p, 1e9, 1e9)
				checkOracle(t, p)
			}
		}
		checkOracle(t, p)
	}
}

// TestAuditCatchesCorruptedIndex is the canary for the index's audit
// hooks: mutating a server behind the index's back must surface both
// as an integrity violation (stale key) and as a pick divergence.
func TestAuditCatchesCorruptedIndex(t *testing.T) {
	class := ServerClass{Name: "corrupt", Cores: 10, Memory: 100, LocalMemory: 100}
	s := newSim("canary", Config{Base: class, NBase: 2}, nil)
	s.pools[0].place(0, 4, 40, 0)
	s.pools[0].place(1, 1, 10, 0)

	// Bypass the index: server 0 now has 1 core free, but the index
	// still believes 6.
	f := &s.pools[0]
	f.coresFree[0] -= 5

	rec := audit.NewRecorder()
	f.ix.auditIntegrityCore(rec, "canary", f.frontier, f.state)
	if rec.Counts()["alloc/index-integrity"] == 0 {
		t.Fatalf("stale index key not caught: %v", rec.Counts())
	}

	rec = audit.NewRecorder()
	s.chk = rec
	got, _ := s.pickFrom(f, 6, 10)
	if rec.Counts()["alloc/index-divergence"] == 0 {
		t.Fatalf("index/scan divergence not caught (picked %d): %v", got, rec.Counts())
	}
}

// TestIndexEmptyAndSinglePools covers the degenerate pool sizes a
// cluster can hand the fleet.
func TestIndexEmptyAndSinglePools(t *testing.T) {
	empty := newMirrorPool(indexClass(), 0)
	comparePicks(t, empty, 2, 8)
	comparePicks(t, empty, 0, 0)

	p := newMirrorPool(indexClass(), 1)
	comparePicks(t, p, 2, 8)
	p.place(0, 2, 8)
	comparePicks(t, p, 2, 8)
	comparePicks(t, p, 8, 64)
	p.unplace(0, 2, 8)
	checkOracle(t, p)
}
