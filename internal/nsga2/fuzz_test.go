package nsga2

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tradeoff/internal/sched"
)

// rerankOrder is the reference order repair: a counting sort that
// ranks genes by their (possibly duplicated) order values in [0, len),
// ties by gene index. It is the repair the engine ran before children
// were merged from their parents' execution sequences, kept here as the
// merge's specification.
func rerankOrder(ord []int32) {
	counts := make([]int32, len(ord))
	for _, v := range ord {
		counts[v]++
	}
	var sum int32
	for v, c := range counts {
		counts[v] = sum
		sum += c
	}
	for i, v := range ord {
		ord[i] = counts[v]
		counts[v]++
	}
}

// refHistogram is a child's machine histogram in mergePair's layout:
// entry m+1 counts machine m's tasks. Entry 0, the dropped-task sink,
// is left 0; comparisons skip it.
func refHistogram(a *sched.Allocation, machines int) []int32 {
	h := make([]int32, machines+1)
	for _, m := range a.Machine {
		if m >= 0 {
			h[m+1]++
		}
	}
	return h
}

// packed scatters an allocation into a fresh execution sequence.
func packed(a *sched.Allocation) []uint32 {
	q := make([]uint32, a.Len())
	sched.ScatterSlots(a, q, nil)
	return q
}

// checkReranked requires the reference repair's output to be a
// permutation that keeps the strict relative order of the swapped
// order values, so the reference itself is held to the property.
func checkReranked(before, after []int32) error {
	n := len(after)
	seen := make([]bool, n)
	for _, v := range after {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("reference repair is not a permutation: %v", after)
		}
		seen[v] = true
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if before[i] < before[j] && after[i] > after[j] {
				return fmt.Errorf("relative order broken between genes %d and %d: %v -> %v", i, j, before, after)
			}
		}
	}
	return nil
}

// checkMerge holds mergePair, on parents p1 and p2 (orders are
// permutations, machines in [-1, machines)) and the segment [i, j], to
// the reference: copy the parents, swap machines and orders over the
// segment, rerank each child's order, scatter. The merged sequences and
// their histograms must both match.
func checkMerge(p1, p2 *sched.Allocation, i, j, machines int) error {
	n := p1.Len()
	c1, c2 := p1.Clone(), p2.Clone()
	for g := i; g <= j; g++ {
		c1.Machine[g], c2.Machine[g] = c2.Machine[g], c1.Machine[g]
		c1.Order[g], c2.Order[g] = c2.Order[g], c1.Order[g]
	}
	for _, c := range []*sched.Allocation{c1, c2} {
		before := append([]int32(nil), c.Order...)
		rerankOrder(c.Order)
		if err := checkReranked(before, c.Order); err != nil {
			return err
		}
	}
	got1, got2 := make([]uint32, n), make([]uint32, n)
	h1, h2 := make([]int32, machines+1), make([]int32, machines+1)
	for m := range h1 {
		h1[m], h2[m] = 7, 7 // stale histograms: the merge must reset them
	}
	mergePair(packed(p1), packed(p2), got1, got2, h1, h2, i, j)
	for k, c := range []struct {
		got  []uint32
		h    []int32
		want *sched.Allocation
	}{{got1, h1, c1}, {got2, h2, c2}} {
		if want := packed(c.want); !reflect.DeepEqual(c.got, want) {
			return fmt.Errorf("segment [%d,%d]: child %d merged to %v, reference %v", i, j, k+1, c.got, want)
		}
		if want := refHistogram(c.want, machines); !reflect.DeepEqual(c.h[1:], want[1:]) {
			return fmt.Errorf("segment [%d,%d]: child %d histogram %v, reference %v", i, j, k+1, c.h[1:], want[1:])
		}
	}
	return nil
}

// checkMutate holds mutateSeq to the reference edit on the allocation:
// move gene g to machine m, then swap the orders of genes x and y.
func checkMutate(a *sched.Allocation, g int, m int32, x, y, machines int) error {
	seq := packed(a)
	h := refHistogram(a, machines)
	want := a.Clone()
	want.Machine[g] = m
	want.Order[x], want.Order[y] = want.Order[y], want.Order[x]
	mutateSeq(seq, h, g, m, x, y)
	if w := packed(want); !reflect.DeepEqual(seq, w) {
		return fmt.Errorf("mutation g=%d m=%d x=%d y=%d: sequence %v, reference %v", g, m, x, y, seq, w)
	}
	if w := refHistogram(want, machines); !reflect.DeepEqual(h[1:], w[1:]) {
		return fmt.Errorf("mutation g=%d m=%d x=%d y=%d: histogram %v, reference %v", g, m, x, y, h[1:], w[1:])
	}
	return nil
}

// argsort returns the permutation ranking keys ascending, ties by
// index: an order array derived from arbitrary bytes.
func argsort(keys []int) []int32 {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	ord := make([]int32, len(keys))
	for r, g := range idx {
		ord[g] = int32(r)
	}
	return ord
}

// FuzzRepairOrder derives two parents (orders ranked from the bytes,
// machines from the bytes with dropped genes), a segment and a
// mutation from an arbitrary byte string, and holds the merged children
// and the mutated sequence to the reference.
func FuzzRepairOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{255})
	f.Add([]byte{7, 200, 13, 13, 0, 99, 42, 1, 255, 128, 64})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 512 {
			raw = raw[:512]
		}
		const machines = 4
		n := len(raw)
		k1, k2 := make([]int, n), make([]int, n)
		m1, m2 := make([]int32, n), make([]int32, n)
		for g, b := range raw {
			k1[g], k2[g] = int(b), int(b^0x5a)*n-g
			m1[g] = int32(int(b)*7%(machines+1)) - 1
			m2[g] = int32(int(b)*3%(machines+1)) - 1
		}
		p1 := &sched.Allocation{Machine: m1, Order: argsort(k1)}
		p2 := &sched.Allocation{Machine: m2, Order: argsort(k2)}
		i, j := int(raw[0])%n, int(raw[n-1])%n
		if i > j {
			i, j = j, i
		}
		if err := checkMerge(p1, p2, i, j, machines); err != nil {
			t.Fatal(err)
		}
		g, x, y := int(raw[n/2])%n, int(raw[n/3])%n, int(raw[2*n/3])%n
		if err := checkMutate(p1, g, int32(int(raw[n/4])%machines), x, y, machines); err != nil {
			t.Fatal(err)
		}
	})
}
