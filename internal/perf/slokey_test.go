package perf

// Regression tests for the SLO memo key's coverage of the queueing
// kernel knobs. sloKey reduces Options to the fields that influence the
// simulated point, and that reduction is rebuilt by hand — so a new
// simulator knob that is threaded into queueing.Config but forgotten in
// the reduced literal silently collides memo entries across kernel
// modes. That is exactly what happened when ReferenceEventLoop landed;
// these tests pin the fix and the failure shape.

import (
	"fmt"
	"testing"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/hw"
)

// kernelKnobVariants are the Options mutations that change what the
// queueing simulator computes and therefore must change the memo key.
func kernelKnobVariants() map[string]func(*Options) {
	return map[string]func(*Options){
		"ReferenceSampling":  func(o *Options) { o.ReferenceSampling = true },
		"ReferenceEventLoop": func(o *Options) { o.ReferenceEventLoop = true },
		"Requests":           func(o *Options) { o.Requests += 1000 },
		"Seed":               func(o *Options) { o.Seed++ },
	}
}

// TestSLOKeyDistinguishesKernelKnobs pins that every simulator knob
// produces a distinct memo key, while sweep-shape knobs that cannot
// change the baseline point share one.
func TestSLOKeyDistinguishesKernelKnobs(t *testing.T) {
	a := apps.All()[0]
	base := hw.BaselineGen3()
	def := DefaultOptions()
	k0 := sloKey(a, base, def)

	for name, mut := range kernelKnobVariants() {
		opt := def
		mut(&opt)
		if sloKey(a, base, opt) == k0 {
			t.Errorf("%s: memo key unchanged by a knob that changes the simulation", name)
		}
	}
	for name, mut := range map[string]func(*Options){
		"Workers":        func(o *Options) { o.Workers = 7 },
		"DisableSLOMemo": func(o *Options) { o.DisableSLOMemo = true },
		"CoreSteps":      func(o *Options) { o.CoreSteps = []int{8} },
		"CapacityBand":   func(o *Options) { o.CapacityBand = 2 },
		"SLOSlack":       func(o *Options) { o.SLOSlack = 3 },
	} {
		opt := def
		mut(&opt)
		if sloKey(a, base, opt) != k0 {
			t.Errorf("%s: memo key changed by a green-side sweep knob", name)
		}
	}
}

// TestSLOKeyLegacyShapeCollides documents the bug the fix removed: the
// pre-fix reduced literal (BaselineCores, LoadFraction, Requests, Seed,
// ReferenceSampling only) maps different kernel modes to one key, so a
// scalar-loop point could have been served from a batched run's memo
// entry. The current sloKey keeps them apart.
func TestSLOKeyLegacyShapeCollides(t *testing.T) {
	legacyKey := func(a apps.App, baseline hw.SKU, opt Options) string {
		k := Options{
			BaselineCores:     opt.BaselineCores,
			LoadFraction:      opt.LoadFraction,
			Requests:          opt.Requests,
			Seed:              opt.Seed,
			ReferenceSampling: opt.ReferenceSampling,
		}
		return fmt.Sprintf("%#v|%#v|%#v", a, baseline, k)
	}
	a := apps.All()[0]
	base := hw.BaselineGen3()
	batched := DefaultOptions()
	scalar := batched
	scalar.ReferenceEventLoop = true

	if legacyKey(a, base, batched) != legacyKey(a, base, scalar) {
		t.Fatal("legacy key shape no longer collides; this regression demo is stale")
	}
	if sloKey(a, base, batched) == sloKey(a, base, scalar) {
		t.Fatal("sloKey collides across ReferenceEventLoop modes: a scalar-loop point could be served from a batched memo entry")
	}
}

// TestSLOMemoMissesAcrossKernelModes is the behavioral form: flipping a
// kernel knob after a memoized run must miss the cache, not serve the
// other mode's point.
func TestSLOMemoMissesAcrossKernelModes(t *testing.T) {
	opt := DefaultOptions()
	opt.Requests = 8000
	a := apps.All()[0]
	base := hw.BaselineGen3()

	ResetSLOCache()
	if _, _, err := SLO(a, base, opt); err != nil {
		t.Fatal(err)
	}
	ref := opt
	ref.ReferenceEventLoop = true
	if _, _, err := SLO(a, base, ref); err != nil {
		t.Fatal(err)
	}
	if h, m := SLOCacheStats(); h != 0 || m != 2 {
		t.Fatalf("ReferenceEventLoop run reused the batched memo entry: hits=%d misses=%d, want 0/2", h, m)
	}
}
