package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden.txt files under testdata")

// analyzerByName resolves one analyzer from the suite.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// runFixture loads one testdata directory and renders the diagnostics of
// the given analyzers with basename-only file paths, one per line.
func runFixture(t *testing.T, dir string, analyzers []*Analyzer) []string {
	t.Helper()
	mod, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	var lines []string
	for _, d := range Run(mod, analyzers) {
		lines = append(lines, fmt.Sprintf("%s:%d: %s: %s",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message))
	}
	return lines
}

// checkGolden compares lines against dir/golden.txt, rewriting it under
// -update.
func checkGolden(t *testing.T, dir string, lines []string) {
	t.Helper()
	golden := filepath.Join(dir, "golden.txt")
	got := ""
	if len(lines) > 0 {
		got = strings.Join(lines, "\n") + "\n"
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("write %s: %v", golden, err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (run `go test ./internal/lint -update` to create): %v", golden, err)
	}
	if want := string(raw); got != want {
		t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", dir, got, want)
	}
}

// TestFixtures golden-checks every analyzer against its positive fixture
// (must fire) and negative fixture (must stay silent).
func TestFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			posDir := filepath.Join("testdata", a.Name, "pos")
			negDir := filepath.Join("testdata", a.Name, "neg")
			posLines := runFixture(t, posDir, []*Analyzer{a})
			if len(posLines) == 0 {
				t.Errorf("%s: positive fixture produced no diagnostics", a.Name)
			}
			checkGolden(t, posDir, posLines)
			negLines := runFixture(t, negDir, []*Analyzer{a})
			if len(negLines) != 0 {
				t.Errorf("%s: negative fixture produced diagnostics:\n%s",
					a.Name, strings.Join(negLines, "\n"))
			}
			checkGolden(t, negDir, negLines)
		})
	}
}

// TestSeededDiagnosticExact pins the full diagnostic strings for seeded
// violations, one per analyzer, so message wording stays stable.
func TestSeededDiagnosticExact(t *testing.T) {
	cases := []struct {
		analyzer string
		want     string
	}{
		{"purity", `pos.go:6: purity: import of math/rand is forbidden in internal packages; all randomness must flow through tradeoff/internal/rng`},
		{"maprange", `pos.go:16: maprange: map iteration with order-sensitive effect (append to keys); iterate sorted keys instead`},
		{"floatorder", `pos.go:20: floatorder: goroutine accumulates into captured float sum; the sum depends on scheduling order — write per-worker slots and reduce in fixed order`},
		{"hotalloc", `pos.go:28: hotalloc: fmt.Sprintf allocates in hotpath Step (allowed only as a panic argument)`},
		{"exhaustive", `pos.go:18: exhaustive: switch over pos.Phase is not exhaustive: missing Drain, Shutdown`},
		{"snapshotcover", `pos.go:13: snapshotcover: snapshot field EngineSnapshot.Seed is referenced on the encode side but never on the decode side; a restored run silently drops it`},
		{"optwire", `conf.go:11: optwire: exported option field Config.Beta is unreachable from any cmd/ CLI write; plumb a flag through (or allow-list a code-level extension point)`},
		{"sharedstate", `pos.go:24: sharedstate: goroutine writes captured total without per-slot confinement; index it by a goroutine-local variable, send it over a channel, or keep it goroutine-local`},
		{"interpurity", `pos.go:12: interpurity: pure function step writes package-level var ticks (via step → advance → record); a //detlint:pure root must stay deterministically replayable on every call path`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.analyzer, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.analyzer, "pos")
			lines := runFixture(t, dir, []*Analyzer{analyzerByName(t, tc.analyzer)})
			for _, l := range lines {
				if l == tc.want {
					return
				}
			}
			t.Errorf("diagnostic %q not found; got:\n%s", tc.want, strings.Join(lines, "\n"))
		})
	}
}

// TestEpsArchiveFixture golden-checks the bounded ε-dominance archive
// shape (DESIGN.md §13): the positive fixture seeds the violations a
// naive grid archive invites — process-seeded box hashing, map-ordered
// pruning, allocating hot-path inserts — and each must fire; the
// negative fixture is internal/moea's real shape (fixed hash constants,
// direct-mapped verified hints, manual binary search, reslice-and-copy
// splices) and must stay silent.
func TestEpsArchiveFixture(t *testing.T) {
	posDir := filepath.Join("testdata", "epsarchive", "pos")
	posLines := runFixture(t, posDir, Analyzers())
	for _, want := range []string{"purity", "maprange", "hotalloc"} {
		found := false
		for _, l := range posLines {
			if strings.Contains(l, ": "+want+": ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("positive epsarchive fixture did not trigger %s:\n%s",
				want, strings.Join(posLines, "\n"))
		}
	}
	checkGolden(t, posDir, posLines)
	negDir := filepath.Join("testdata", "epsarchive", "neg")
	negLines := runFixture(t, negDir, Analyzers())
	if len(negLines) != 0 {
		t.Errorf("negative epsarchive fixture produced diagnostics:\n%s",
			strings.Join(negLines, "\n"))
	}
	checkGolden(t, negDir, negLines)
}

// TestPhaseTimerFixture golden-checks the phase-profiler shape
// (DESIGN.md §14): the positive fixture seeds the violations a naive
// profiler invites — ambient wall-clock brackets, a mutable global
// accumulator map, map-ordered summaries, allocating hot paths — and
// each must fire; the negative fixture is internal/obs's real shape
// (injected clock, fixed-slot atomic adds indexed by a compile-time
// enum, nil-safe brackets) and must stay silent.
func TestPhaseTimerFixture(t *testing.T) {
	posDir := filepath.Join("testdata", "phasetimer", "pos")
	posLines := runFixture(t, posDir, Analyzers())
	for _, want := range []string{"purity", "maprange", "hotalloc"} {
		found := false
		for _, l := range posLines {
			if strings.Contains(l, ": "+want+": ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("positive phasetimer fixture did not trigger %s:\n%s",
				want, strings.Join(posLines, "\n"))
		}
	}
	checkGolden(t, posDir, posLines)
	negDir := filepath.Join("testdata", "phasetimer", "neg")
	negLines := runFixture(t, negDir, Analyzers())
	if len(negLines) != 0 {
		t.Errorf("negative phasetimer fixture produced diagnostics:\n%s",
			strings.Join(negLines, "\n"))
	}
	checkGolden(t, negDir, negLines)
}

// TestDistWireFixture golden-checks the distributed wire codec shape
// (DESIGN.md §15): the positive fixture seeds the violations a naive
// migration codec invites — an encode/decode pair that silently drops a
// payload field, map-ordered mailbox flushing, and hot-path
// send/receive with unguarded appends and per-frame formatting — and
// each must fire; the negative fixture is internal/dist's real shape
// (symmetric field coverage, ring-ordered flushing, reset-guarded frame
// buffers, cold-path error construction) and must stay silent.
func TestDistWireFixture(t *testing.T) {
	posDir := filepath.Join("testdata", "distwire", "pos")
	posLines := runFixture(t, posDir, Analyzers())
	for _, want := range []string{"snapshotcover", "maprange", "hotalloc"} {
		found := false
		for _, l := range posLines {
			if strings.Contains(l, ": "+want+": ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("positive distwire fixture did not trigger %s:\n%s",
				want, strings.Join(posLines, "\n"))
		}
	}
	checkGolden(t, posDir, posLines)
	negDir := filepath.Join("testdata", "distwire", "neg")
	negLines := runFixture(t, negDir, Analyzers())
	if len(negLines) != 0 {
		t.Errorf("negative distwire fixture produced diagnostics:\n%s",
			strings.Join(negLines, "\n"))
	}
	checkGolden(t, negDir, negLines)
}

// TestSuppress checks //detlint:allow: two excused wall-clock reads stay
// silent, the third is reported.
func TestSuppress(t *testing.T) {
	dir := filepath.Join("testdata", "suppress")
	lines := runFixture(t, dir, Analyzers())
	checkGolden(t, dir, lines)
	if len(lines) != 1 {
		t.Fatalf("want exactly 1 unsuppressed finding, got %d:\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "suppress.go:14:") || !strings.Contains(lines[0], "time.Now") {
		t.Errorf("unexpected surviving finding: %s", lines[0])
	}
}

// TestModuleClean runs the whole suite over the real tree: the module
// must lint clean so `make lint` stays a zero-findings gate.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped with -short")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := Run(mod, Analyzers())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
