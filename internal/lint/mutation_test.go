package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModuleTree clones the real module's go.mod and .go sources into a
// temp dir so mutation tests can break invariants without touching the
// working tree. Directories the loader skips (testdata, vendor, hidden)
// are not copied.
func copyModuleTree(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != src && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
	return dst
}

// mutate applies exactly one textual replacement to rel inside root,
// failing if the anchor is missing or ambiguous so silent drift in the
// mutated file cannot turn the test into a no-op.
func mutate(t *testing.T, root, rel, old, new string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", rel, err)
	}
	if n := strings.Count(string(data), old); n != 1 {
		t.Fatalf("mutation anchor %q occurs %d times in %s, want exactly 1", old, n, rel)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatalf("write %s: %v", rel, err)
	}
}

// runMutated lints the mutated tree with one analyzer and returns the
// rendered findings.
func runMutated(t *testing.T, root, analyzer string) []string {
	t.Helper()
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule on mutated tree: %v", err)
	}
	var lines []string
	for _, d := range Run(mod, []*Analyzer{analyzerByName(t, analyzer)}) {
		lines = append(lines, d.String())
	}
	return lines
}

// TestMutations proves each call-graph analyzer guards its invariant on
// the real module: seed one regression a future refactor could
// plausibly introduce, and require the analyzer to catch it. The
// inverse direction — the unmutated module is clean — is TestModuleClean.
func TestMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("each mutation type-checks the full module; skipped with -short")
	}
	cases := []struct {
		name     string
		analyzer string
		file     string
		old, new string
		want     string
	}{
		{
			// Drop the generation read from the islands decode path: the
			// field is still encoded, so a restored run would silently
			// restart its migration clock.
			name:     "snapshotcover_drops_decode_read",
			analyzer: "snapshotcover",
			file:     "internal/nsga2/snapshot.go",
			old:      "is.shard.Restore(s.Generation, s.Islands)",
			new:      "is.shard.Restore(0, s.Islands)",
			want:     "snapshot field IslandsSnapshot.Generation is referenced on the encode side but never on the decode side",
		},
		{
			// Add an exported knob nobody consumes or wires.
			name:     "optwire_ghost_field",
			analyzer: "optwire",
			file:     "internal/core/core.go",
			old:      "type Options struct {",
			new:      "type Options struct {\n\tGhost int",
			want:     "exported option field Options.Ghost is consumed by no engine code",
		},
		{
			// Collapse the per-island, per-epoch record slot to a shared
			// constant index: every island now races on one cell.
			name:     "sharedstate_constant_slot",
			analyzer: "sharedstate",
			file:     "internal/nsga2/shard.go",
			old:      "recs[i][t] = captureShard",
			new:      "recs[0][0] = captureShard",
			want:     "goroutine writes captured recs without per-slot confinement",
		},
		{
			// Bump a package-level counter inside the pure-marked restore
			// path.
			name:     "interpurity_global_counter",
			analyzer: "interpurity",
			file:     "internal/nsga2/snapshot.go",
			old:      "func (e *Engine) Restore(s *Snapshot) error {",
			new:      "func (e *Engine) Restore(s *Snapshot) error {\n\trestoreCount++",
			want:     "pure function Engine.Restore writes package-level var restoreCount",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			root := copyModuleTree(t)
			mutate(t, root, tc.file, tc.old, tc.new)
			if tc.name == "interpurity_global_counter" {
				mutate(t, root, tc.file, "\n// GenomeSnapshot",
					"\nvar restoreCount int\n\n// GenomeSnapshot")
			}
			lines := runMutated(t, root, tc.analyzer)
			for _, l := range lines {
				if strings.Contains(l, tc.want) {
					return
				}
			}
			t.Errorf("mutation not caught; want finding containing %q, got:\n%s",
				tc.want, strings.Join(lines, "\n"))
		})
	}
}
