package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenFigures are the figures whose CSV output was captured from the
// pre-refactor seed tree (before the drivers moved onto the Datapath
// interface). The refactor is purely structural: putting VF/PV/VMDq behind
// the backend interface must not move a single byte of any figure, so the
// comparison is exact, not tolerance-based. The fig06–fig14 goldens predate
// the timer wheel, and the fig20/fig21 goldens were rendered on the binary
// heap, so they also pin the wheel to the heap's output.
var goldenFigures = []string{"fig06", "fig07", "fig08", "fig09", "fig10", "fig12", "fig13", "fig14", "fig20", "fig21"}

// TestDifferentialAgainstSeedFigures regenerates each golden figure on the
// refactored drivers and compares the CSV byte-for-byte against the output
// recorded from the pre-refactor tree. Any diff means the Datapath refactor
// changed model behavior rather than just code structure.
func TestDifferentialAgainstSeedFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("differential regeneration skipped in -short mode")
	}
	for _, id := range goldenFigures {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".csv"))
			if err != nil {
				t.Fatalf("golden file: %v", err)
			}
			s, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			got := s.Run().CSV()
			if got != string(want) {
				t.Errorf("%s CSV drifted from the pre-refactor seed output\n--- golden ---\n%s\n--- got ---\n%s",
					id, want, got)
			}
		})
	}
}
