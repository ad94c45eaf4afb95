package experiments

// Large-fleet allocation benchmark.
// AllocScaleBench replays a slice of the production suite at a fleet
// size where materializing every server hurts — the columnar arm
// streams each trace from its GSFB binary encoding through
// alloc.SimulateSource (the production replay path), while the
// reference arm replays the materialized trace through the linear-scan
// oracle (alloc.SimulateOracle), which builds every configured server
// and scans its pool per placement. The two must stay
// decision-identical bit for bit; the speedup comes from the placement
// index and from the virgin frontier never materializing servers the
// trace doesn't touch.

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"time"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/trace"
)

// AllocScaleOptions sizes the large-fleet benchmark.
type AllocScaleOptions struct {
	// Traces caps how many production-suite traces to replay; 0
	// defaults to 6 (the reference arm pays O(servers) per placement,
	// so the full 35 at scale is CI-hostile).
	Traces int
	// ServersPerClass is the pool size for both classes; 0 defaults
	// to 100,000. The columnar arm handles a million; the oracle arm's
	// time grows linearly with it.
	ServersPerClass int
	Policy          alloc.Policy
}

// AllocScaleResult is one row of the artifact's scale table.
type AllocScaleResult struct {
	Traces            int     `json:"traces"`
	VMs               int     `json:"vms"`
	ServersPerClass   int     `json:"servers_per_class"`
	Policy            string  `json:"policy"`
	ColumnarSeconds   float64 `json:"columnar_seconds"`
	ReferenceSeconds  float64 `json:"reference_seconds"`
	Speedup           float64 `json:"speedup"`
	DecisionIdentical bool    `json:"decision_identical"`
	Placed            int     `json:"placed"`
	Rejected          int     `json:"rejected"`
}

// AllocScaleBench times the columnar streaming replay against the
// linear-scan oracle at a large fleet size and verifies the two
// produce bit-identical Results trace by trace.
func AllocScaleBench(ctx context.Context, opt AllocScaleOptions) (AllocScaleResult, error) {
	traces, err := trace.ProductionSuite()
	if err != nil {
		return AllocScaleResult{}, err
	}
	nt := opt.Traces
	if nt <= 0 {
		nt = 6
	}
	if nt < len(traces) {
		traces = traces[:nt]
	}
	n := opt.ServersPerClass
	if n <= 0 {
		n = 100000
	}
	base := hw.BaselineGen3()
	green := hw.GreenSKUFull()
	cfg := alloc.Config{
		Base:   alloc.ServerClass{Name: base.Name, Cores: base.Cores(), Memory: base.TotalDRAMGB(), LocalMemory: base.LocalDRAMGB()},
		NBase:  n,
		Green:  alloc.ServerClass{Name: green.Name, Cores: green.Cores(), Memory: green.TotalDRAMGB(), LocalMemory: green.LocalDRAMGB(), Green: true},
		NGreen: n,
		Policy: opt.Policy, PreferNonEmpty: true,
	}

	// Encode once up front; the columnar arm times decode + replay
	// (the production path), not encode.
	encoded := make([][]byte, len(traces))
	for i := range traces {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, traces[i]); err != nil {
			return AllocScaleResult{}, fmt.Errorf("experiments: encoding %s: %w", traces[i].Name, err)
		}
		encoded[i] = buf.Bytes()
	}

	columnar := make([]alloc.Result, len(traces))
	start := time.Now()
	for i := range traces {
		src, err := trace.NewBinaryReader(bytes.NewReader(encoded[i]))
		if err != nil {
			return AllocScaleResult{}, err
		}
		res, err := alloc.SimulateSource(ctx, src, cfg, benchDecider)
		if err != nil {
			return AllocScaleResult{}, err
		}
		columnar[i] = res
	}
	columnarSec := time.Since(start).Seconds()

	reference := make([]alloc.Result, len(traces))
	start = time.Now()
	for i := range traces {
		res, err := alloc.SimulateOracle(ctx, traces[i], cfg, benchDecider)
		if err != nil {
			return AllocScaleResult{}, err
		}
		reference[i] = res
	}
	referenceSec := time.Since(start).Seconds()

	res := AllocScaleResult{
		Traces:            len(traces),
		ServersPerClass:   n,
		Policy:            cfg.Policy.String(),
		ColumnarSeconds:   columnarSec,
		ReferenceSeconds:  referenceSec,
		DecisionIdentical: true,
	}
	if columnarSec > 0 {
		res.Speedup = referenceSec / columnarSec
	}
	for i := range traces {
		res.VMs += len(traces[i].VMs)
		res.Placed += columnar[i].Placed
		res.Rejected += columnar[i].Rejected
		if !allocResultsIdentical(columnar[i], reference[i]) {
			res.DecisionIdentical = false
		}
	}
	return res, nil
}

// ScaleArtifact is the standalone scale-suite artifact (CI's
// bench-scale upload); the same rows also ride along in
// BenchArtifact.Scale when the alloc suite runs with a scale size.
type ScaleArtifact struct {
	Schema string             `json:"schema"`
	Scale  []AllocScaleResult `json:"scale"`
}

// WriteScaleArtifact encodes the artifact as indented JSON.
func WriteScaleArtifact(w io.Writer, a ScaleArtifact) error {
	a.Schema = cmp.Or(a.Schema, BenchSchema)
	return writeArtifact(w, "scale", a)
}
