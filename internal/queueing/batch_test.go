package queueing

// The batched-kernel differential wall: the batched structure-of-arrays
// event loop must produce bit-identical Results to the scalar loop it
// replaced (RunOracle with fast sampling) for every seed and both
// server-index structures (heap below calendarMinServers, calendar
// queue above). Every run executes under the package TestMain's audit
// recorder, so the wall doubles as a zero-violations audit sweep.

import (
	"context"
	"testing"

	"github.com/greensku/gsf/internal/audit"
)

// batchDiffConfigs are the kernel shapes the differential wall sweeps:
// small and large server counts (heap and calendar index), stable and
// saturated load, log-normal, exponential, and constant service.
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

// TestCalendarQueueCanary feeds the calendar a monotone replace stream
// and cross-checks every extraction against a sorted oracle; then
// corrupts it and verifies auditCalendar notices (the calendar analogue
// of TestAuditHeapDetectsDisorder's heap canary).
func TestCalendarQueueCanary(t *testing.T) {
	const servers = 300
	q := newCalendarQueue(servers, 10, 200, servers)
	oracle := make([]float64, servers)
	r := newTestRNG()
	clock := 0.0
	for i := 0; i < 20000; i++ {
		want := oracleMin(oracle)
		got := q.next()
		if got != want {
			t.Fatalf("event %d: calendar min %g, oracle min %g", i, got, want)
		}
		clock += r.Float64() * 0.01
		start := clock
		if got > start {
			start = got
		}
		done := start + r.Float64()*0.05
		q.replace(done)
		oracleReplace(oracle, want, done)
	}
	if q.size() != servers {
		t.Fatalf("calendar tracks %d entries, want %d", q.size(), servers)
	}
}

func oracleMin(a []float64) float64 {
	m := a[0]
	for _, v := range a[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func oracleReplace(a []float64, old, new float64) {
	for i, v := range a {
		if v == old {
			a[i] = new
			return
		}
	}
	panic("oracle entry not found")
}

// TestAuditCalendarDetectsCorruption pins that the calendar integrity
// sweep actually fires: dropping an entry breaks the per-server count.
func TestAuditCalendarDetectsCorruption(t *testing.T) {
	q := newCalendarQueue(300, 10, 200, 300)
	r := newTestRNG()
	for i := 0; i < 1000; i++ {
		m := q.next()
		d := m + r.Float64()*0.05
		if c := r.Float64() * 0.01; d < c {
			d = c
		}
		q.replace(d)
	}
	rec := audit.NewRecorder()
	auditCalendar(rec, q, 300)
	if rec.Count() != 0 {
		t.Fatalf("clean calendar reported violations: %v", rec.Violations())
	}
	// Drop one stored entry.
	for slot := range q.buckets {
		if len(q.buckets[slot]) > 0 {
			q.buckets[slot] = q.buckets[slot][:len(q.buckets[slot])-1]
			break
		}
	}
	auditCalendar(rec, q, 300)
	if rec.Counts()["queueing/calendar-integrity"] == 0 {
		t.Fatalf("auditCalendar missed a dropped server entry; counts = %v", rec.Counts())
	}
}

// TestBatchedRunSteadyStateAllocs pins the per-run allocation count of
// the calendar index with a warm pool. It allows for the bucket ring
// (allocated per run and grown by appends); TestRunSteadyStateAllocs
// holds the heap index to single digits.
func TestBatchedRunSteadyStateAllocs(t *testing.T) {
	cfg := Config{Servers: 512, ArrivalRate: 0.8 * Capacity(512, LogNormal{0.004, 1}), Service: LogNormal{0.004, 1}, Requests: 8000, Seed: 21}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 64 {
		t.Errorf("calendar: steady-state batched Run allocates %.1f times, want <= 64", avg)
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

// BenchmarkServerIndex compares the two index structures inside the
// batched loop across server counts — the measurement behind the
// calendarMinServers cutoff.
func BenchmarkServerIndex(b *testing.B) {
	for _, servers := range []int{64, 256, 1024, 8192} {
		cfg := Config{
			Servers:     servers,
			Service:     LogNormal{0.004, 1.5},
			ArrivalRate: 0.85 * Capacity(servers, LogNormal{0.004, 1.5}),
			Requests:    30000,
			Seed:        1,
		}
		b.Run(benchName("servers", servers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
