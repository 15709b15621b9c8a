package telemetry

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler writes optional CPU and heap profiles for a command's
// -cpuprofile and -memprofile flags. Only the commands start one, like
// the wall clock: the engine packages stay free of profiling, and a run
// without the flags pays nothing.
type Profiler struct {
	cpu  *os.File
	heap string
}

// StartProfiler begins CPU profiling if cpuPath is non-empty and
// remembers heapPath for a heap snapshot at Stop. Either path may be
// empty; a profiler with both empty is a no-op.
func StartProfiler(cpuPath, heapPath string) (*Profiler, error) {
	p := &Profiler{heap: heapPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		p.cpu = f
	}
	return p, nil
}

// Stop ends CPU profiling and writes the heap profile, once; later
// calls (and calls on a nil profiler) are no-ops, so the error path
// can stop the same profiler the success path does.
func (p *Profiler) Stop() error {
	if p == nil {
		return nil
	}
	if p.cpu != nil {
		pprof.StopCPUProfile()
		err := p.cpu.Close()
		p.cpu = nil
		if err != nil {
			return err
		}
	}
	if p.heap != "" {
		path := p.heap
		p.heap = ""
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		runtime.GC() // settle transients so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
