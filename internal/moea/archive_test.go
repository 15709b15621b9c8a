package moea

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"tradeoff/internal/rng"
)

// TestArchiveEvictedPayloadNotRetained asserts that a rejected point
// never enters the archive and that an entry dropped by the crowding
// prune is cleared from the backing array rather than kept alive past
// the slice length. TestEpsilonArchivePayloadRelease covers eviction.
func TestArchiveEvictedPayloadNotRetained(t *testing.T) {
	ar := NewEpsilonArchive(UtilityEnergySpace(), []float64{0.1, 0.1}, 64)
	if !ar.Add([]float64{100, -1}, 100) {
		t.Fatal("first point rejected")
	}
	if ar.Add([]float64{100, -1}, 101) {
		t.Fatal("duplicate accepted")
	}
	if ar.Add([]float64{99, 0}, 102) {
		t.Fatal("dominated point accepted")
	}
	for i, e := range ar.entries[:cap(ar.entries)] {
		if e.payload != 100 {
			t.Errorf("rejected payload %d retained at backing slot %d", e.payload, i)
		}
	}
	br := NewEpsilonArchive(NewSpace(Minimize, Minimize, Minimize), []float64{0.5, 0.5, 0.5}, 2)
	br.Add([]float64{0, 1, 2}, 0)
	br.Add([]float64{1, 2, 0}, 1)
	br.Add([]float64{2, 0, 1}, 2) // overflow: one pruned
	if br.Len() != 2 {
		t.Fatalf("bounded Len = %d, want 2", br.Len())
	}
	for i, e := range br.entries[br.Len():cap(br.entries)] {
		if e.point != nil {
			t.Errorf("pruned point %v retained at backing slot %d", e.point, br.Len()+i)
		}
	}
}

// TestArchivePayloadsMatchPoints drives adds and evictions and checks
// Payloads() stays aligned with Points(), including first-objective ties
// (possible in spaces with three objectives).
func TestArchivePayloadsMatchPoints(t *testing.T) {
	sp := NewSpace(Minimize, Minimize, Minimize)
	ar := NewEpsilonArchive(sp, []float64{1e-9, 1e-9, 1e-9}, 1<<16)
	src := rng.New(41)
	var offered [][]float64
	for i := 0; i < 400; i++ {
		p := []float64{float64(src.Intn(4)), src.Float64() * 10, src.Float64() * 10}
		offered = append(offered, p)
		ar.Add(p, i)
	}
	pts := ar.Points()
	pays := ar.Payloads()
	if len(pts) != len(pays) {
		t.Fatalf("len(Points)=%d len(Payloads)=%d", len(pts), len(pays))
	}
	ties := 0
	for i := range pts {
		if !equalVec(pts[i], offered[pays[i]]) {
			t.Fatalf("entry %d: point %v but payload %d was offered as %v", i, pts[i], pays[i], offered[pays[i]])
		}
		if i > 0 && pts[i][0] == pts[i-1][0] {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("stream produced no first-objective ties")
	}
}

func TestNewEpsilonArchiveValidation(t *testing.T) {
	cases := []func(){
		func() { NewEpsilonArchive(UtilityEnergySpace(), []float64{0.1, 0.1}, 0) },
		func() { NewEpsilonArchive(UtilityEnergySpace(), []float64{0.1}, 10) },
		func() { NewEpsilonArchive(UtilityEnergySpace(), []float64{0.1, 0}, 10) },
		func() { NewEpsilonArchive(UtilityEnergySpace(), []float64{0.1, math.NaN()}, 10) },
		func() { NewEpsilonArchive(UtilityEnergySpace(), []float64{0.1, 0.1}, 10).Add([]float64{1}, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// refEpsArchive is a deliberately naive reference implementation of the
// same ε-dominance semantics: linear scans, boxes recomputed on every
// comparison, and a crowding distance written out per objective. With a
// cap it prunes the same way the archive does: the entry with the
// smallest crowding distance goes, and ties go to the entry with the
// lexicographically lowest canonical box. The production archive must
// agree with it entry for entry on any insert stream.
type refEpsArchive struct {
	sp       Space
	eps      []float64
	cap      int
	pts      [][]float64
	payloads []int
}

func (r *refEpsArchive) box(p []float64) []int64 {
	b := make([]int64, len(r.eps))
	for k := range r.eps {
		c := p[k]
		if r.sp.Senses[k] == Maximize {
			c = -c
		}
		b[k] = int64(math.Floor(c / r.eps[k]))
	}
	return b
}

func (r *refEpsArchive) add(p []float64, payload int) bool {
	bp := r.box(p)
	same := -1
	for i, q := range r.pts {
		bq := r.box(q)
		leq, geq := true, true
		for k := range bp {
			if bq[k] > bp[k] {
				leq = false
			}
			if bq[k] < bp[k] {
				geq = false
			}
		}
		if leq && geq {
			same = i
			break
		}
		if leq {
			return false
		}
	}
	if same >= 0 {
		q := r.pts[same]
		if r.sp.Dominates(p, q) {
			r.pts[same] = append([]float64(nil), p...)
			r.payloads[same] = payload
			return true
		}
		if r.sp.Dominates(q, p) || equalVec(q, p) {
			return false
		}
		var dp, dq float64
		for k := range p {
			cp, cq := p[k], q[k]
			if r.sp.Senses[k] == Maximize {
				cp, cq = -cp, -cq
			}
			corner := float64(bp[k])
			a := cp/r.eps[k] - corner
			b := cq/r.eps[k] - corner
			dp += a * a
			dq += b * b
		}
		if dp < dq {
			r.pts[same] = append([]float64(nil), p...)
			r.payloads[same] = payload
			return true
		}
		return false
	}
	var keepP [][]float64
	var keepL []int
	for i, q := range r.pts {
		bq := r.box(q)
		dominated := true
		for k := range bp {
			if bq[k] < bp[k] {
				dominated = false
				break
			}
		}
		if !dominated {
			keepP = append(keepP, q)
			keepL = append(keepL, r.payloads[i])
		}
	}
	r.pts = append(keepP, append([]float64(nil), p...))
	r.payloads = append(keepL, payload)
	if r.cap > 0 && len(r.pts) > r.cap {
		r.prune()
	}
	return true
}

// prune drops the most crowded entry. Per objective, the entries are
// sorted by value; the two extremes get an infinite distance and every
// other entry adds the gap between its neighbours over the objective's
// span.
func (r *refEpsArchive) prune() {
	n := len(r.pts)
	dist := make([]float64, n)
	for k := range r.eps {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return r.pts[idx[a]][k] < r.pts[idx[b]][k] })
		dist[idx[0]], dist[idx[n-1]] = math.Inf(1), math.Inf(1)
		span := r.pts[idx[n-1]][k] - r.pts[idx[0]][k]
		if span == 0 {
			continue
		}
		for j := 1; j < n-1; j++ {
			if !math.IsInf(dist[idx[j]], 1) {
				dist[idx[j]] += (r.pts[idx[j+1]][k] - r.pts[idx[j-1]][k]) / span
			}
		}
	}
	victim := 0
	for i := 1; i < n; i++ {
		if dist[i] < dist[victim] || dist[i] == dist[victim] && lexLess(r.box(r.pts[i]), r.box(r.pts[victim])) {
			victim = i
		}
	}
	r.pts = append(r.pts[:victim], r.pts[victim+1:]...)
	r.payloads = append(r.payloads[:victim], r.payloads[victim+1:]...)
}

func lexLess(a, b []int64) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// canonKey renders a point for set comparison.
func canonKey(p []float64) string {
	s := ""
	for _, v := range p {
		s += "|"
		s += strconvF(v)
	}
	return s
}

func strconvF(v float64) string {
	// Exact bit pattern, so distinct floats never collide.
	u := math.Float64bits(v)
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[u&0xf]
		u >>= 4
	}
	return string(b[:])
}

// epsStream draws n points. A cloud stream is uniform over
// [0, scale)^dim, so its front stays small and most offers are
// rejected or duelled. A curve stream (two objectives only) samples
// along a utility/energy trade-off, so it is mostly mutually
// nondominated and presses against any cap. quant > 0 rounds every
// coordinate down to a multiple of quant; evenly spaced values give
// equal crowding distances, which provokes prune ties.
func epsStream(dim, n int, seed uint64, scale, quant float64, curve bool) [][]float64 {
	src := rng.New(seed)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for k := range p {
			p[k] = src.Float64() * scale
		}
		if curve {
			p[1] = p[0] + 1e-3*scale*src.Float64()
		}
		if quant > 0 {
			for k := range p {
				p[k] = math.Floor(p[k]/quant) * quant
			}
		}
		pts[i] = p
	}
	return pts
}

// runEpsVsReference streams pts through the production archive and the
// reference, both capped at maxSize, and requires identical accept
// verdicts, identical sizes after every insert and identical surviving
// (point, payload) sets.
func runEpsVsReference(t *testing.T, sp Space, eps []float64, maxSize int, pts [][]float64) {
	t.Helper()
	ar := NewEpsilonArchive(sp, eps, maxSize)
	ref := &refEpsArchive{sp: sp, eps: eps, cap: maxSize}
	for i, p := range pts {
		gotA := ar.Add(p, i)
		gotR := ref.add(p, i)
		if gotA != gotR {
			t.Fatalf("insert %d (%v): archive=%v reference=%v", i, p, gotA, gotR)
		}
		if ar.Len() != len(ref.pts) {
			t.Fatalf("insert %d: Len=%d reference=%d", i, ar.Len(), len(ref.pts))
		}
	}
	want := map[string]int{}
	for i, p := range ref.pts {
		want[canonKey(p)] = ref.payloads[i]
	}
	got, pays := ar.Points(), ar.Payloads()
	if len(got) != len(want) {
		t.Fatalf("final size %d, reference %d", len(got), len(want))
	}
	for i, p := range got {
		pay, ok := want[canonKey(p)]
		if !ok {
			t.Fatalf("point %v not in reference archive", p)
		}
		if pays[i] != pay {
			t.Fatalf("point %v: payload %v, reference %v", p, pays[i], pay)
		}
	}
}

// epsCaps are the archive caps every reference stream runs under: small
// caps prune on almost every accepted insert, and the last one is never
// reached, so the grid alone bounds the archive.
var epsCaps = []int{2, 4, 8, 16, 64, 1 << 16}

func TestEpsilonArchiveMatchesReference2D(t *testing.T) {
	sp := UtilityEnergySpace()
	for _, tc := range []struct {
		name         string
		eps          []float64
		n            int
		seed         uint64
		scale, quant float64
		curve        bool
	}{
		{"coarse", []float64{0.25, 0.25}, 3000, 1, 10, 0, false},                    // many duels
		{"fine", []float64{0.01, 0.01}, 2000, 2, 1, 0, false},                       // many boxes
		{"anisotropic", []float64{0.5, 0.05}, 2500, 3, 5, 0, false},                 //
		{"one-box", []float64{1000, 1000}, 500, 4, 10, 0, false},                    // pure duels
		{"cluster", []float64{0.1, 0.1}, 1500, 5, 0.001, 0, false},                  // tight cluster
		{"curve", []float64{1e-3, 1e-3}, 3000, 6, 1, 0, true},                       // presses every cap
		{"curve-even", []float64{1.0 / 256, 1.0 / 256}, 2000, 7, 1, 1.0 / 64, true}, // equal gaps: prune ties
		{"curve-decimal", []float64{0.003, 0.003}, 2000, 8, 1, 0.01, true},          // near-equal gaps
		{"cloud-quantized", []float64{0.1, 0.1}, 2000, 9, 10, 0.5, false},           // shared grid lines
	} {
		pts := epsStream(2, tc.n, tc.seed, tc.scale, tc.quant, tc.curve)
		for _, c := range epsCaps {
			t.Run(fmt.Sprintf("%s/cap%d", tc.name, c), func(t *testing.T) {
				runEpsVsReference(t, sp, tc.eps, c, pts)
			})
		}
	}
}

func TestEpsilonArchiveMatchesReference3D(t *testing.T) {
	sp := NewSpace(Minimize, Maximize, Minimize)
	pts := epsStream(3, 2000, 7, 4, 0, false)
	for _, c := range epsCaps {
		t.Run(fmt.Sprintf("cap%d", c), func(t *testing.T) {
			runEpsVsReference(t, sp, []float64{0.2, 0.3, 0.25}, c, pts)
		})
	}
}

// TestEpsilonArchiveBounded checks the maxSize cap holds under a stream
// that occupies far more boxes than the cap.
func TestEpsilonArchiveBounded(t *testing.T) {
	ar := NewEpsilonArchive(UtilityEnergySpace(), []float64{1e-4, 1e-4}, 32)
	src := rng.New(13)
	for i := 0; i < 5000; i++ {
		// Sample along a utility/energy tradeoff curve so the stream is
		// mostly mutually nondominated and occupies thousands of boxes
		// (a uniform cloud's front is only ~ln n points, which
		// would never press against the cap).
		u := src.Float64()
		e := u + 1e-3*src.Float64()
		ar.Add([]float64{u, e}, i)
		if ar.Len() > 32 {
			t.Fatalf("insert %d: Len=%d exceeds cap 32", i, ar.Len())
		}
	}
	if ar.Len() != 32 {
		t.Fatalf("final Len=%d, want full cap 32", ar.Len())
	}
	pts := ar.Points()
	sp := ar.space
	for i := range pts {
		for j := range pts {
			if i != j && sp.Dominates(pts[i], pts[j]) {
				// Box-nondominance implies the archive never holds a
				// box-dominated pair; the crowding prune preserves that.
				t.Fatalf("archived points %v dominates %v", pts[i], pts[j])
			}
		}
	}
}

// TestEpsilonArchiveTieKeepsIncumbent pins the deterministic within-box
// tie-break: equal corner distance keeps the earlier point.
func TestEpsilonArchiveTieKeepsIncumbent(t *testing.T) {
	sp := NewSpace(Minimize, Minimize)
	ar := NewEpsilonArchive(sp, []float64{1, 1}, 8)
	const first, second, closer = 1, 2, 3
	// Both in box (0,0); incomparable; symmetric distances to corner.
	if !ar.Add([]float64{0.25, 0.5}, first) {
		t.Fatal("first rejected")
	}
	if ar.Add([]float64{0.5, 0.25}, second) {
		t.Fatal("tied challenger replaced the incumbent")
	}
	if got := ar.Payloads()[0]; got != first {
		t.Fatalf("payload = %v, want first", got)
	}
	// A strictly closer challenger replaces.
	if !ar.Add([]float64{0.2, 0.2}, closer) {
		t.Fatal("closer challenger rejected")
	}
	if got := ar.Payloads()[0]; got != closer {
		t.Fatalf("payload = %v, want closer", got)
	}
	if ar.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ar.Len())
	}
}

// TestEpsilonArchivePayloadRelease: evicted entries release their
// points from the backing array.
func TestEpsilonArchivePayloadRelease(t *testing.T) {
	ar := NewEpsilonArchive(UtilityEnergySpace(), []float64{0.1, 0.1}, 64)
	for i := 0; i < 8; i++ {
		// Staircase of mutually nondominated boxes.
		ar.Add([]float64{float64(i), float64(i)}, i)
	}
	// Dominates every box: evicts all eight in one splice.
	if !ar.Add([]float64{100, -100}, 100) {
		t.Fatal("sweeping point rejected")
	}
	if ar.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ar.Len())
	}
	for i, e := range ar.entries[1:cap(ar.entries)] {
		if e.point != nil || e.box != nil {
			t.Errorf("ε archive retains %v at backing slot %d", e.point, i+1)
		}
	}
}

// TestEpsilonArchiveSortedOutput: Points is sorted by the improving
// direction of objective 0 and aligned with Payloads.
func TestEpsilonArchiveSortedOutput(t *testing.T) {
	ar := NewEpsilonArchive(UtilityEnergySpace(), []float64{0.2, 0.2}, 128)
	src := rng.New(19)
	offered := make([][]float64, 1000)
	for i := range offered {
		offered[i] = []float64{src.Float64() * 6, src.Float64() * 6}
		ar.Add(offered[i], i)
	}
	pts, pays := ar.Points(), ar.Payloads()
	if !sort.SliceIsSorted(pts, func(a, b int) bool { return pts[a][0] > pts[b][0] }) {
		t.Fatal("Points not sorted by improving utility")
	}
	for i := range pts {
		if !equalVec(pts[i], offered[pays[i]]) {
			t.Fatalf("entry %d: payload %d does not match point %v", i, pays[i], pts[i])
		}
	}
}
