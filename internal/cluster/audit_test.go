package cluster

import (
	"testing"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
)

func TestAuditCleanMixedSize(t *testing.T) {
	rec := audit.NewRecorder()
	s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.BestFit,
		Decide: alloc.AdoptAll, Audit: rec}
	if _, err := s.MixedSize(testTrace(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("clean sizing recorded violations: %v\n%v", err, rec.Violations())
	}
}

func TestAuditMixCatchesBadResults(t *testing.T) {
	tr := testTrace(t, 4)
	rec := audit.NewRecorder()
	one := []alloc.ServerClass{greenClass()}

	auditMix(rec, tr, baseClass(), one, MultiMix{BaselineOnly: 3, NBase: 5, NGreens: []int{0}})
	if rec.Counts()["cluster/baseline-shrinks"] == 0 {
		t.Errorf("baseline growth not caught: %v", rec.Counts())
	}

	rec.Reset()
	auditMix(rec, tr, baseClass(), one, MultiMix{BaselineOnly: 10, NBase: -1, NGreens: []int{2}})
	if rec.Counts()["cluster/negative-size"] == 0 {
		t.Errorf("negative count not caught: %v", rec.Counts())
	}

	// An empty cluster cannot cover the trace's peak demand.
	rec.Reset()
	auditMix(rec, tr, baseClass(), one, MultiMix{BaselineOnly: 10, NBase: 0, NGreens: []int{0}})
	if rec.Counts()["cluster/capacity-below-peak"] == 0 {
		t.Errorf("under-capacity mix not caught: %v", rec.Counts())
	}
}

// TestAuditMixCatchesBadMultiResults runs the same checks over K = 2
// green pools, the shape MultiSizer audits: a negative count in a later
// pool, and capacity counted across every pool.
func TestAuditMixCatchesBadMultiResults(t *testing.T) {
	tr := testTrace(t, 4)
	rec := audit.NewRecorder()
	two := []alloc.ServerClass{greenClass(), greenClass()}

	auditMix(rec, tr, baseClass(), two, MultiMix{BaselineOnly: 10, NBase: 2, NGreens: []int{3, -1}})
	if rec.Counts()["cluster/negative-size"] == 0 {
		t.Errorf("negative count in the second green pool not caught: %v", rec.Counts())
	}

	rec.Reset()
	auditMix(rec, tr, baseClass(), two, MultiMix{BaselineOnly: 10, NBase: 0, NGreens: []int{0, 0}})
	if rec.Counts()["cluster/capacity-below-peak"] == 0 {
		t.Errorf("under-capacity multi-pool mix not caught: %v", rec.Counts())
	}
}
