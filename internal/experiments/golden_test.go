package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifact files under testdata/golden")

// TestArtifactsMatchGolden pins the exact bytes of every artifact file
// (quick mode). The pipeline is deterministic — fixed trace seeds,
// fixed CI grid — so any byte drift is a behaviour change that must be
// reviewed and then blessed with:
//
//	go test ./internal/experiments -run TestArtifactsMatchGolden -update
func TestArtifactsMatchGolden(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteArtifacts(dir, true); err != nil {
		t.Fatal(err)
	}
	goldenDir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range ArtifactFiles {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join(goldenDir, name)
		if *updateGolden {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden copy.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
}

// TestDiversityMatchesGolden pins the exact bytes of `gsf run
// diversity`, the one production caller of the multi-pool simulator
// (through cluster.MultiSizer). Bless a reviewed change with:
//
//	go test ./internal/experiments -run TestDiversityMatchesGolden -update
func TestDiversityMatchesGolden(t *testing.T) {
	r, err := Diversity()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := r.Render(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "diversity.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("diversity output drifted from golden copy.\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
