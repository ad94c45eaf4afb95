package alloc

// Steady-state allocation regressions: once a simulation's pools and
// index have grown to the working set, placing and releasing VMs must
// not touch the heap. The index's treaps and segment tree are
// slice-backed, and the departure heap reuses its backing array, so
// the simulator's per-VM cost is pure CPU. testing.AllocsPerRun pins
// that at zero.

import (
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

func TestIndexedPickZeroAllocs(t *testing.T) {
	class := ServerClass{Name: "steady", Cores: 32, Memory: 256, LocalMemory: 256}
	f := newFleet(class, 1024)
	// Touch every server, leaving mixed occupancy so queries traverse
	// both treaps.
	for id := int32(0); id < f.n; id++ {
		f.place(id, 4, 32, 0)
		if id%3 != 0 {
			f.release(id, 4, 32, 0)
		}
	}
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		avg := testing.AllocsPerRun(200, func() {
			id := f.pick(4, 32, pol, true)
			if id == nilNode {
				t.Fatal("no feasible server in a near-empty pool")
			}
			f.place(id, 4, 32, 0)
			f.release(id, 4, 32, 0)
		})
		if avg != 0 {
			t.Errorf("indexed pick+place+release under %v allocates %.1f times per op, want 0", pol, avg)
		}
	}
}

// TestSimStepZeroAllocs pins the two-pool Step — decide, pick, place,
// release, snapshot — at zero heap allocations once the touched fleet
// and departure heap have reached their working set.
func TestSimStepZeroAllocs(t *testing.T) {
	// Auditing re-derives every pick by scan and formats nothing on a
	// clean run, but it is not the path being pinned.
	prev := audit.Default()
	audit.SetDefault(nil)
	defer audit.SetDefault(prev)

	sim, err := NewSim("steady", Config{
		Base: baseClass(), NBase: 64,
		Green: greenClass(), NGreen: 64,
		PreferNonEmpty: true, SnapshotEvery: 1,
	}, diffDecider)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	step := func() {
		// One arrival every 0.05h, each staying 2h: a steady population
		// of about 40 VMs across both pools, with a snapshot every 20.
		at := float64(i) * 0.05
		vm := trace.VM{ID: i, Arrive: at, Depart: at + 2, Cores: 4 + i%3*2, Memory: 32, Gen: 3, MaxMemFrac: 0.5}
		if err := sim.Step(vm); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 2000 {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("warmed two-pool Step allocates %.2f times per VM, want 0", avg)
	}
}

func TestDepartureHeapZeroAllocs(t *testing.T) {
	var h colDepHeap
	// One warm cycle establishes the backing array's capacity.
	for i := 0; i < 128; i++ {
		colDepPush(&h, colDeparture{at: float64((i * 37) % 128)})
	}
	for len(h) > 0 {
		colDepPop(&h)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 128; i++ {
			colDepPush(&h, colDeparture{at: float64((i * 53) % 128)})
		}
		for len(h) > 0 {
			if d := colDepPop(&h); d.at < 0 {
				t.Fatal("negative departure time")
			}
		}
	})
	if avg != 0 {
		t.Errorf("departure heap churn allocates %.1f times per cycle, want 0", avg)
	}
}

// TestDepartureHeapOrdering pins the typed heap to container/heap
// semantics: pops come out in non-decreasing time order regardless of
// push order.
func TestDepartureHeapOrdering(t *testing.T) {
	var h colDepHeap
	times := []float64{5, 1, 9, 1, 7, 3, 3, 8, 0, 2, 6, 4}
	for _, at := range times {
		colDepPush(&h, colDeparture{at: at})
	}
	prev := -1.0
	for len(h) > 0 {
		d := colDepPop(&h)
		if d.at < prev {
			t.Fatalf("heap popped %g after %g", d.at, prev)
		}
		prev = d.at
	}
}
