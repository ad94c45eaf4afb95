package perf

// Regression tests for the SLO memo key's coverage of the options the
// simulated point depends on. sloKey reduces Options to those fields,
// and that reduction is rebuilt by hand — so an option sloRun reads but
// the reduced literal forgets would silently collide memo entries.

import (
	"testing"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/hw"
)

// kernelKnobVariants are the Options mutations that change what sloRun
// simulates and therefore must change the memo key.
func kernelKnobVariants() map[string]func(*Options) {
	return map[string]func(*Options){
		"BaselineCores": func(o *Options) { o.BaselineCores += 2 },
		"LoadFraction":  func(o *Options) { o.LoadFraction -= 0.1 },
		"Requests":      func(o *Options) { o.Requests += 1000 },
		"Seed":          func(o *Options) { o.Seed++ },
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
