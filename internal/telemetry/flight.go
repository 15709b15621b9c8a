package telemetry

import (
	"fmt"
	"os"

	"tradeoff/internal/obs"
)

// DumpFlight writes the flight recorder's retained window as trace
// JSONL: to path (truncating, so repeated dumps keep the latest window)
// when non-empty, to stderr otherwise. A short status line, prefixed
// "prog:", always goes to stderr so signal-triggered dumps are visible
// even when redirected. A nil recorder is a no-op.
func DumpFlight(prog string, fr *obs.FlightRecorder, path, reason string) {
	if fr == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: flight-recorder dump (%s): %d of %d observed event(s)\n",
		prog, reason, fr.Len(), fr.TotalObserved())
	out := os.Stderr
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", prog, err)
			return
		}
		defer f.Close()
		out = f
	}
	if err := fr.Dump(out); err != nil {
		fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", prog, err)
		return
	}
	if path != "" {
		fmt.Fprintf(os.Stderr, "%s: flight dump written to %s\n", prog, path)
	}
}
