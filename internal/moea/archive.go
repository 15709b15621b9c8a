package moea

import (
	"math"
	"sort"
)

// Archive is a bounded ε-dominance archive (DESIGN.md §13): objective
// space is cut into an ε-grid, at most one representative is kept per
// occupied box, and a candidate whose box is dominated by an occupied
// box is rejected. Each point carries an int payload (typically an index
// into the caller's own slice). Inserts are a linear scan over the
// occupied boxes, which the grid and the cap keep small.
type Archive struct {
	space   Space
	eps     []float64
	maxSize int
	// entries are kept in insertion order; Points/Payloads sort on
	// output.
	entries []archiveEntry
}

// archiveEntry is one archived point with its payload and canonical
// (minimization-sense) box coordinates.
type archiveEntry struct {
	point   []float64
	box     []int64
	payload int
}

// NewEpsilonArchive returns a bounded ε-dominance archive: objective
// space is partitioned into boxes of per-objective width eps[k]
// (canonicalized to minimization sense), at most one point is retained
// per occupied box, and a candidate is rejected when an occupied box
// dominates its box component-wise. Within one box the duel keeps the
// dominating point, or failing that the point closer to the box's
// utopia corner, with ties resolved for the incumbent — so outcomes are
// deterministic in the insertion order. maxSize is a hard cap on top of
// the grid bound; on overflow the most crowded point is pruned.
func NewEpsilonArchive(space Space, eps []float64, maxSize int) *Archive {
	if maxSize < 1 {
		panic("moea: epsilon archive needs maxSize >= 1")
	}
	if len(eps) != len(space.Senses) {
		panic("moea: epsilon archive needs one eps per objective")
	}
	for _, e := range eps {
		if !(e > 0) {
			panic("moea: epsilon archive needs eps > 0")
		}
	}
	return &Archive{space: space, eps: append([]float64(nil), eps...), maxSize: maxSize}
}

// Len returns the number of archived points.
func (ar *Archive) Len() int { return len(ar.entries) }

// Add offers a point to the archive. It returns true if the point was
// accepted: its box is not dominated by an occupied box, and it won
// the duel if its box was already occupied. The point is copied.
//
//detlint:pure
func (ar *Archive) Add(point []float64, payload int) bool {
	if len(point) != len(ar.eps) {
		panic("moea: point dimension mismatch")
	}
	box := make([]int64, len(ar.eps))
	for k := range box {
		box[k] = int64(math.Floor(ar.canon(point, k) / ar.eps[k]))
	}
	for i := range ar.entries {
		if eb := ar.entries[i].box; boxLeq(eb, box) {
			if boxLeq(box, eb) {
				return ar.duel(i, point, payload)
			}
			return false // an occupied box dominates the candidate's
		}
	}
	// Evict entries whose boxes the candidate dominates, keeping the
	// survivors in order.
	keep := ar.entries[:0]
	for _, e := range ar.entries {
		if !boxLeq(box, e.box) {
			keep = append(keep, e)
		}
	}
	clear(ar.entries[len(keep):]) // release evicted points
	ar.entries = append(keep, archiveEntry{point: append([]float64(nil), point...), box: box, payload: payload})
	if len(ar.entries) > ar.maxSize {
		ar.prune()
	}
	return true
}

// canon returns objective k of point in canonical minimization sense.
func (ar *Archive) canon(point []float64, k int) float64 {
	if ar.space.Senses[k] == Maximize {
		return -point[k]
	}
	return point[k]
}

// duel resolves a candidate landing in entry i's box: the dominating
// point wins; between incomparable points the one closer to the box's
// utopia corner (ε-normalized canonical coordinates) wins; exact ties
// keep the incumbent.
func (ar *Archive) duel(i int, point []float64, payload int) bool {
	e := &ar.entries[i]
	inc := e.point
	if ar.space.Dominates(inc, point) || equalVec(inc, point) {
		return false
	}
	if !ar.space.Dominates(point, inc) {
		var dc, dq float64
		for k := range point {
			bk := float64(e.box[k])
			cc := ar.canon(point, k)/ar.eps[k] - bk
			cq := ar.canon(inc, k)/ar.eps[k] - bk
			dc += cc * cc
			dq += cq * cq
		}
		if !(dc < dq) {
			return false
		}
	}
	copy(inc, point)
	e.payload = payload
	return true
}

// prune removes the entry with the smallest crowding distance. Ties go
// to the entry with the lexicographically lowest canonical box, so the
// victim depends only on the archived set, never on the entry order.
func (ar *Archive) prune() {
	points := make([][]float64, len(ar.entries))
	front := make([]int, len(ar.entries))
	for i, e := range ar.entries {
		points[i], front[i] = e.point, i
	}
	dist := ar.space.CrowdingDistance(points, front)
	victim := 0
	for i := 1; i < len(dist); i++ {
		if dist[i] < dist[victim] || dist[i] == dist[victim] && boxLess(ar.entries[i].box, ar.entries[victim].box) {
			victim = i
		}
	}
	n := len(ar.entries)
	copy(ar.entries[victim:], ar.entries[victim+1:])
	ar.entries[n-1] = archiveEntry{}
	ar.entries = ar.entries[:n-1]
}

// Points returns copies of the archived objective vectors, sorted by the
// first objective in improving order.
func (ar *Archive) Points() [][]float64 {
	idx := ar.sortedIdx()
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = append([]float64(nil), ar.entries[j].point...)
	}
	return out
}

// Payloads returns the payloads in the same order as Points.
func (ar *Archive) Payloads() []int {
	idx := ar.sortedIdx()
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = ar.entries[j].payload
	}
	return out
}

// sortedIdx orders entries by the first objective in improving order.
// The comparator is total (ties fall back to entry index) so the two
// independent calls from Points and Payloads always agree.
func (ar *Archive) sortedIdx() []int {
	idx := make([]int, len(ar.entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := ar.entries[idx[a]].point[0], ar.entries[idx[b]].point[0]
		if x != y {
			if ar.space.Senses[0] == Maximize {
				return x > y
			}
			return x < y
		}
		return idx[a] < idx[b]
	})
	return idx
}

// boxLeq reports whether box a is <= box b in every coordinate.
func boxLeq(a, b []int64) bool {
	for k := range a {
		if a[k] > b[k] {
			return false
		}
	}
	return true
}

// boxLess orders boxes lexicographically.
func boxLess(a, b []int64) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
