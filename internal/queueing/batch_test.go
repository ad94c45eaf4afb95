package queueing

// The batched-kernel differential wall: the batched structure-of-arrays
// event loop must produce bit-identical Results to the scalar loop it
// replaced (RunOracle with fast sampling) for every seed, from 8 to 512
// servers. Every run executes under the package TestMain's audit
// recorder, so the wall doubles as a zero-violations audit sweep.

import (
	"context"
	"strconv"
	"testing"
)

// batchDiffConfigs are the kernel shapes the differential wall sweeps:
// small and large server counts, stable and saturated load, log-normal, exponential, and constant service.
func batchDiffConfigs() []Config {
	return []Config{
		{Servers: 8, ArrivalRate: 0.8 * Capacity(8, LogNormal{0.004, 1.5}), Service: LogNormal{0.004, 1.5}, Requests: 20000},
		{Servers: 8, ArrivalRate: 1.05 * Capacity(8, LogNormal{0.004, 1.5}), Service: LogNormal{0.004, 1.5}, Requests: 20000},
		{Servers: 64, ArrivalRate: 0.85 * Capacity(64, LogNormal{0.005, 1.5}), Service: LogNormal{0.005, 1.5}, Requests: 20000},
		{Servers: 512, ArrivalRate: 0.8 * Capacity(512, LogNormal{0.004, 1}), Service: LogNormal{0.004, 1}, Requests: 20000},
		{Servers: 512, ArrivalRate: 1.1 * Capacity(512, LogNormal{0.004, 1}), Service: LogNormal{0.004, 1}, Requests: 20000},
		{Servers: 16, ArrivalRate: 0.7 * Capacity(16, Exponential{0.004}), Service: Exponential{0.004}, Requests: 20000},
		{Servers: 300, ArrivalRate: 0.75 * Capacity(300, Exponential{0.002}), Service: Exponential{0.002}, Requests: 20000},
		{Servers: 8, ArrivalRate: 0.6 * Capacity(8, LogNormal{0.004, 0}), Service: LogNormal{0.004, 0}, Requests: 20000},
		{Servers: 400, ArrivalRate: 0.6 * Capacity(400, LogNormal{0.004, 0}), Service: LogNormal{0.004, 0}, Requests: 20000},
	}
}

// TestBatchedMatchesReferenceEventLoop35Seeds is the acceptance wall:
// batched == scalar oracle, bit for bit, on every config across 35
// seeds.
func TestBatchedMatchesReferenceEventLoop35Seeds(t *testing.T) {
	for ci, cfg := range batchDiffConfigs() {
		for seed := uint64(1); seed <= 35; seed++ {
			cfg.Seed = seed
			batched := run(t, cfg)
			scalar := runOracle(t, cfg, false)
			if batched != scalar {
				t.Fatalf("config %d seed %d: batched %+v != scalar %+v", ci, seed, batched, scalar)
			}
		}
	}
}

// TestBatchedKneeSearchMatchesReference pins that the whole adaptive
// search — not just single runs — is loop-agnostic.
func TestBatchedKneeSearchMatchesReference(t *testing.T) {
	for _, servers := range []int{8, 512} {
		cfg := Config{Servers: servers, Service: LogNormal{0.004, 1}, Requests: 20000, Seed: 5}
		kb, err := KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := kneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02,
			func(ctx context.Context, c Config) (Result, error) { return RunOracle(ctx, c, false) })
		if err != nil {
			t.Fatal(err)
		}
		if kb != kr {
			t.Fatalf("servers %d: batched knee %+v != reference knee %+v", servers, kb, kr)
		}
	}
}

func BenchmarkRunBatched(b *testing.B) {
	cfg := Config{Servers: 8, ArrivalRate: 0.9 * Capacity(8, LogNormal{0.004, 1.5}), Service: LogNormal{0.004, 1.5}, Requests: 30000, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunScalarLoop(b *testing.B) {
	cfg := Config{Servers: 8, ArrivalRate: 0.9 * Capacity(8, LogNormal{0.004, 1.5}), Service: LogNormal{0.004, 1.5}, Requests: 30000, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := RunOracle(context.Background(), cfg, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerIndex times the batched loop's next-free heap across
// server counts, far beyond the 8-12 servers of any profiled VM.
func BenchmarkServerIndex(b *testing.B) {
	for _, servers := range []int{64, 256, 1024, 8192} {
		cfg := Config{
			Servers:     servers,
			Service:     LogNormal{0.004, 1.5},
			ArrivalRate: 0.85 * Capacity(servers, LogNormal{0.004, 1.5}),
			Requests:    30000,
			Seed:        1,
		}
		b.Run("servers="+strconv.Itoa(servers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
