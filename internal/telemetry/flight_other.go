//go:build !unix

package telemetry

import "tradeoff/internal/obs"

// WatchFlightSignal is a no-op on platforms without SIGUSR1; panic-time
// dumps still work.
func WatchFlightSignal(string, *obs.FlightRecorder, string) func() {
	return func() {}
}
