//go:build unix

package telemetry

import (
	"os"
	"os/signal"
	"syscall"

	"tradeoff/internal/obs"
)

// WatchFlightSignal dumps the flight recorder's window with DumpFlight
// on every SIGUSR1 until the returned stop function is called. Only the
// commands call it: the engine packages below stay free of process
// signals.
func WatchFlightSignal(prog string, fr *obs.FlightRecorder, path string) func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGUSR1)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				DumpFlight(prog, fr, path, "SIGUSR1")
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
