package sched

import (
	"fmt"
	"io"
	"sort"
)

// GanttRow is one executed task in schedule order, for export to
// spreadsheet or plotting tools.
type GanttRow struct {
	Task     int
	TaskType int
	Machine  int
	Arrival  float64
	Start    float64
	End      float64
	// WaitSeconds is Start − Arrival.
	WaitSeconds float64
	Utility     float64
	Energy      float64
}

// Gantt simulates the allocation and returns one row per executed task,
// sorted by machine then start time. End is the task's completion time
// from CompletionTimes; Start is the later of the task's arrival and
// the End of the machine's previous task.
func (e *Evaluator) Gantt(a *Allocation) ([]GanttRow, error) {
	r := e.getReplay()
	defer e.replays.Put(r)
	if err := e.validate(a, r); err != nil {
		return nil, err
	}
	d, c := r.session(e)
	times, _ := d.CompletionTimes(a, c)
	tasks := e.trace.Tasks
	var rows []GanttRow
	for ti, end := range times {
		if end < 0 {
			continue // dropped
		}
		task := &tasks[ti]
		m := int(a.Machine[ti])
		rows = append(rows, GanttRow{
			Task:     ti,
			TaskType: task.Type,
			Machine:  m,
			Arrival:  task.Arrival,
			End:      end,
			Utility:  task.TUF.Value(end - task.Arrival),
			Energy:   e.eec[task.Type][m],
		})
	}
	// A machine runs its tasks in global order, so sorting by order
	// within a machine is sorting by start time.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Machine != rows[j].Machine {
			return rows[i].Machine < rows[j].Machine
		}
		return a.Order[rows[i].Task] < a.Order[rows[j].Task]
	})
	for i := range rows {
		r := &rows[i]
		var free float64 // when the machine finishes its previous task
		if i > 0 && rows[i-1].Machine == r.Machine {
			free = rows[i-1].End
		}
		r.Start = max(free, r.Arrival)
		r.WaitSeconds = r.Start - r.Arrival
	}
	return rows, nil
}

// WriteGanttCSV exports the schedule as CSV.
func (e *Evaluator) WriteGanttCSV(w io.Writer, a *Allocation) error {
	rows, err := e.Gantt(a)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "task,task_type,machine,arrival,start,end,wait_seconds,utility,energy_joules"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			r.Task, r.TaskType, r.Machine, r.Arrival, r.Start, r.End, r.WaitSeconds, r.Utility, r.Energy); err != nil {
			return err
		}
	}
	return nil
}
