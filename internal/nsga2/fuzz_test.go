package nsga2

import (
	"fmt"
	"reflect"
	"testing"

	"tradeoff/internal/sched"
)

// checkRepair runs the production order repair, repairOrderSlotsCounted,
// on ord (values in [0, len(ord)), duplicates allowed) with the histogram
// of ord as its counts and machine (values in [-1, machines)) as the
// genes' machines. The repaired ord must be a permutation that keeps the
// strict relative order of the input values, and the slot array and
// machine histogram it writes must equal what scatterSlots rebuilds from
// the repaired allocation.
func checkRepair(ord, machine []int32, machines int) error {
	n := len(ord)
	before := append([]int32(nil), ord...)
	counts := make([]int32, n)
	for _, v := range ord {
		counts[v]++
	}
	slots := make([]uint64, n)
	mcounts := make([]int32, machines)
	for m := range mcounts {
		mcounts[m] = 7 // stale histogram: the repair must reset it
	}
	repairOrderSlotsCounted(ord, machine, counts, slots, mcounts)
	seen := make([]bool, n)
	for _, v := range ord {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("not a permutation: %v", ord)
		}
		seen[v] = true
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if before[i] < before[j] && ord[i] > ord[j] {
				return fmt.Errorf("relative order broken between genes %d and %d: %v -> %v", i, j, before, ord)
			}
		}
	}
	wantSlots, wantCounts := make([]uint64, n), make([]int32, machines)
	scatterSlots(&sched.Allocation{Machine: machine, Order: ord}, wantSlots, wantCounts)
	if !reflect.DeepEqual(slots, wantSlots) {
		return fmt.Errorf("slots %v, scatterSlots rebuilds %v", slots, wantSlots)
	}
	if !reflect.DeepEqual(mcounts, wantCounts) {
		return fmt.Errorf("machine counts %v, scatterSlots rebuilds %v", mcounts, wantCounts)
	}
	return nil
}

// FuzzRepairOrder feeds arbitrary byte strings as order arrays, with a
// machine row derived from the same bytes (dropped genes included), to
// the production order repair.
func FuzzRepairOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		const machines = 4
		n := len(raw)
		ord, machine := make([]int32, n), make([]int32, n)
		for i, b := range raw {
			ord[i] = int32(int(b) % n)
			machine[i] = int32(int(b)*7%(machines+1)) - 1
		}
		if err := checkRepair(ord, machine, machines); err != nil {
			t.Fatal(err)
		}
	})
}
