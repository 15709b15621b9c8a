package sched

import (
	"fmt"
	"io"
)

// MachineReport describes one machine instance's share of a realized
// schedule — the per-machine breakdown an administrator reads to see
// where energy and work concentrate.
type MachineReport struct {
	Machine     int
	MachineType int
	Tasks       int
	// BusySeconds is the total execution time on the machine.
	BusySeconds float64
	// SpanSeconds is the time from 0 to the machine's last completion.
	SpanSeconds float64
	// Utilization is BusySeconds / SpanSeconds (0 for unused machines).
	Utilization float64
	// EnergyJoules is the execution energy attributed to the machine.
	EnergyJoules float64
	// Utility earned by the machine's tasks.
	Utility float64
}

// Report simulates the allocation and returns per-machine breakdowns,
// index-aligned with the system's machine instances. Each row is the
// machine's contribution row from EvaluateFull. Only the returned rows
// are allocated; the replay runs on the evaluator's pooled scratch.
func (e *Evaluator) Report(a *Allocation) ([]MachineReport, error) {
	rp := e.getReplay()
	defer e.replays.Put(rp)
	if err := e.validate(a, rp); err != nil {
		return nil, err
	}
	d, c := rp.session(e)
	d.EvaluateFull(a, c)
	reports := make([]MachineReport, e.NumMachines())
	for m := range reports {
		r := &reports[m]
		*r = MachineReport{
			Machine:      m,
			MachineType:  e.sys.MachineTypeOf(m),
			Tasks:        int(c.Done[m]),
			BusySeconds:  c.Busy[m],
			SpanSeconds:  c.Ready[m],
			EnergyJoules: c.Energy[m],
			Utility:      c.Utility[m],
		}
		if r.SpanSeconds > 0 {
			r.Utilization = r.BusySeconds / r.SpanSeconds
		}
	}
	return reports, nil
}

// WriteReport prints the per-machine breakdown with machine-type names.
func (e *Evaluator) WriteReport(w io.Writer, a *Allocation) error {
	reports, err := e.Report(a)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-4s %-32s %6s %10s %8s %12s %10s\n",
		"m", "machine type", "tasks", "busy (s)", "util", "energy (MJ)", "utility")
	for _, r := range reports {
		fmt.Fprintf(w, "%-4d %-32s %6d %10.0f %8.2f %12.4f %10.1f\n",
			r.Machine, e.sys.MachineTypes[r.MachineType].Name, r.Tasks,
			r.BusySeconds, r.Utilization, r.EnergyJoules/1e6, r.Utility)
	}
	return nil
}
