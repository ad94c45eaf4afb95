package queueing

import (
	"math"
	"testing"
)

// TestNormQuantile pins the inverse-normal approximation against known
// values and its symmetry.
func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.841344746068543, 1},
		{0.975, 1.959963984540054},
		{0.99, 2.3263478740408408},
		{0.001, -3.090232306167813},
	}
	for _, c := range cases {
		if got := normQuantile(c.p); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("normQuantile(%g) = %.9f, want %.9f", c.p, got, c.want)
		}
	}
	for _, p := range []float64{0.01, 0.2, 0.45} {
		if got, mir := normQuantile(p), -normQuantile(1-p); math.Abs(got-mir) > 1e-9 {
			t.Errorf("normQuantile asymmetric at p=%g: %g vs %g", p, got, mir)
		}
	}
	if !math.IsNaN(normQuantile(0)) || !math.IsNaN(normQuantile(1)) {
		t.Error("normQuantile must be NaN outside (0, 1)")
	}
}
