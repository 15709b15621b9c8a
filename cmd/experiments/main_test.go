package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set to 1, makes the test binary run the command's
// main on its arguments instead of the tests.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

// TestMain lets the test binary stand in for the command, so the tests
// below drive the real flag parsing, output and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the command with args in a child process and returns
// its combined output and exit code.
func runCommand(t *testing.T, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("running %v: %v", args, err)
	return "", 0
}

func TestTablePrints(t *testing.T) {
	out, code := runCommand(t, "-table", "1")
	if code != 0 {
		t.Fatalf("-table 1 exited %d:\n%s", code, out)
	}
	if !strings.HasPrefix(out, "Table I:") || !strings.Contains(out, "AMD A8-3870K") {
		t.Fatalf("-table 1 printed no table:\n%s", out)
	}
}

func TestTinyFigureRuns(t *testing.T) {
	out, code := runCommand(t, "-figure", "3", "-scale", "0.01", "-pop", "10")
	if code != 0 {
		t.Fatalf("-figure 3 exited %d:\n%s", code, out)
	}
	for _, want := range []string{"Figure 3: Pareto fronts for dataset1", "min-energy", "max-utility-per-energy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-figure 3 output lacks %q:\n%s", want, out)
		}
	}
}

// TestRemovedKernelFlagRejected pins the removal of -kernel: the one
// simulation kernel has no switch, so the flag is unknown.
func TestRemovedKernelFlagRejected(t *testing.T) {
	out, code := runCommand(t, "-kernel", "typed", "-table", "1")
	if code == 0 {
		t.Fatalf("-kernel accepted:\n%s", out)
	}
	if !strings.Contains(out, "flag provided but not defined: -kernel") {
		t.Fatalf("-kernel not rejected as an unknown flag:\n%s", out)
	}
}
