package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"github.com/greensku/gsf/internal/core"
)

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it (nearest-rank), or 0 when n is too
// small for even the median to qualify.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-1-rankIndex(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples: the smallest index whose share of samples at or below it is
// at least p percent.
func rankIndex(p float64, n int) int {
	// The tolerance keeps products like 0.999*10000 from rounding up
	// past an exact rank.
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// percentile returns the nearest-rank percentile p of xs (not
// modified); 0 for no samples, so an idle layer reports 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(p, len(s))]
}

// median returns the middle value of xs, averaging the two middle
// values of an even count; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// evalDigest fingerprints the outputs of one evaluation the oracle
// pins: the sized Mix, the cluster and datacenter savings, and the
// full scaling-factor matrix, with floats compared bit for bit.
func evalDigest(ev core.Evaluation) string {
	h := sha256.New()
	writeEval(h, ev)
	return hex.EncodeToString(h.Sum(nil))
}

func writeEval(h hash.Hash, ev core.Evaluation) {
	m := ev.Mix
	fmt.Fprintf(h, "mix %d %d %d\n", m.BaselineOnly, m.NBase, m.NGreen)
	fmt.Fprintf(h, "savings %x %x\n", math.Float64bits(ev.ClusterSavings), math.Float64bits(ev.DCSavings))
	apps := make([]string, 0, len(ev.Factors))
	for a := range ev.Factors {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		gens := make([]int, 0, len(ev.Factors[a]))
		for g := range ev.Factors[a] {
			gens = append(gens, g)
		}
		sort.Ints(gens)
		for _, g := range gens {
			f := ev.Factors[a][g]
			fmt.Fprintf(h, "factor %s %d %s %x %t\n", a, g, f.Baseline, math.Float64bits(f.Value), f.Adoptable)
		}
	}
}

// combineDigests folds per-evaluation digests, in canonical order, into
// one digest for a whole pass.
func combineDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}
