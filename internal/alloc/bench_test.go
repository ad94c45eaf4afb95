package alloc

import (
	"context"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

func benchTrace(b *testing.B) trace.Trace {
	b.Helper()
	p := trace.DefaultParams("bench", 31)
	p.HorizonHours = 24 * 7
	tr, err := trace.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkSimulateBestFit(b *testing.B) {
	tr := benchTrace(b)
	cfg := Config{
		Base:   ServerClass{Name: "base", Cores: 80, Memory: 768, LocalMemory: 768},
		NBase:  60,
		Green:  ServerClass{Name: "green", Cores: 128, Memory: 1024, LocalMemory: 768, Green: true},
		NGreen: 30, Policy: BestFit, PreferNonEmpty: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg, AdoptAll); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.VMs)), "vms/run")
}

func BenchmarkSimulatePolicies(b *testing.B) {
	tr := benchTrace(b)
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := Config{
				Base:  ServerClass{Name: "base", Cores: 80, Memory: 768, LocalMemory: 768},
				NBase: 90, Policy: pol, PreferNonEmpty: true,
			}
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(tr, cfg, AdoptNone); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateEngineVsOracle compares the columnar engine
// against the linear-scan oracle on the same trace and cluster at a
// size where the scan's O(servers)-per-placement cost dominates. Run
// with -benchmem: the engine's per-run allocations must not grow with
// placements.
func BenchmarkSimulateEngineVsOracle(b *testing.B) {
	tr := benchTrace(b)
	// The package's TestMain installs a default audit Recorder, under
	// which every indexed pick is re-derived by a scan — honest for
	// tests, meaningless for timing. Suspend it here.
	prev := audit.Default()
	audit.SetDefault(nil)
	b.Cleanup(func() { audit.SetDefault(prev) })
	cfg := Config{
		Base:   ServerClass{Name: "base", Cores: 80, Memory: 768, LocalMemory: 768},
		NBase:  4000,
		Green:  ServerClass{Name: "green", Cores: 128, Memory: 1024, LocalMemory: 768, Green: true},
		NGreen: 4000, PreferNonEmpty: true,
	}
	arms := []struct {
		name string
		run  func(trace.Trace, Config, Decider) (Result, error)
	}{
		{"engine", Simulate},
		{"oracle", func(tr trace.Trace, cfg Config, d Decider) (Result, error) {
			return SimulateOracle(context.Background(), tr, cfg, d)
		}},
	}
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		cfg.Policy = pol
		for _, arm := range arms {
			b.Run(pol.String()+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := arm.run(tr, cfg, AdoptAll); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
