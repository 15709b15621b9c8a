package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams produced %d identical values out of 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	s := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

// TestUint64nMatchesEagerThreshold holds Uint64n to the rejection rule
// that computes the threshold 2^64 mod n before every draw: the same
// values from the same stream, so every seeded run is unchanged. The n
// cover 1, powers of two (threshold 0), 2^63+1 (about half the draws
// rejected), 2^64-1, and the task and population counts used here.
func TestUint64nMatchesEagerThreshold(t *testing.T) {
	eager := func(s *Source, n uint64) uint64 {
		threshold := -n % n
		for {
			if v := s.Uint64(); v >= threshold {
				return v % n
			}
		}
	}
	ns := []uint64{1, 2, 3, 7, 60, 100, 250, 1000, 4000, 10000, 50000, 200000, 1 << 63, 1<<63 + 1, 3 << 62, math.MaxUint64}
	for k := 0; k < 64; k++ {
		ns = append(ns, 1<<k)
	}
	for _, n := range ns {
		got, want := New(n), New(n)
		for i := 0; i < 2000; i++ {
			if g, w := got.Uint64n(n), eager(want, n); g != w {
				t.Fatalf("n=%d draw %d: Uint64n %d, eager threshold %d", n, i, g, w)
			}
		}
		if got.State() != want.State() {
			t.Fatalf("n=%d: streams consumed different draw counts", n)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(7)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := s.ExpFloat64()
		if x < 0 {
			t.Fatalf("exponential variate negative: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	check := func(n uint8) bool {
		size := int(n%50) + 1
		p := s.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(10)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("Perm first-element bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(11)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams produced %d identical values out of 100", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(12).Split()
	b := New(12).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split is not deterministic at step %d", i)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", p)
	}
}

func TestBoolExtremes(t *testing.T) {
	s := New(14)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestPickRespectsWeights(t *testing.T) {
	s := New(15)
	weights := []float64{1, 0, 3}
	const trials = 100000
	counts := make([]int, len(weights))
	for i := 0; i < trials; i++ {
		counts[s.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestPickNegativeWeightTreatedAsZero(t *testing.T) {
	s := New(16)
	weights := []float64{-5, 2}
	for i := 0; i < 1000; i++ {
		if s.Pick(weights) != 1 {
			t.Fatal("negative-weight index was picked")
		}
	}
}

func TestPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with zero total weight did not panic")
		}
	}()
	New(17).Pick([]float64{0, 0})
}

func TestRange(t *testing.T) {
	s := New(18)
	for i := 0; i < 10000; i++ {
		v := s.Range(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Range(2,5) = %v out of bounds", v)
		}
	}
}

func TestShuffleAllPositionsMove(t *testing.T) {
	s := New(19)
	n := 100
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	s.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	fixed := 0
	for i, v := range vals {
		if i == v {
			fixed++
		}
	}
	// Expected number of fixed points of a random permutation is 1.
	if fixed > 10 {
		t.Fatalf("shuffle left %d fixed points out of %d", fixed, n)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000)
	}
}

func TestStateRoundTrip(t *testing.T) {
	a := New(99)
	for i := 0; i < 57; i++ {
		a.Uint64()
	}
	st := a.State()
	b := FromState(st)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("restored source diverged at step %d", i)
		}
	}
}

func TestReseedMatchesNewStream(t *testing.T) {
	var s Source
	for trial := 0; trial < 20; trial++ {
		seed, stream := uint64(trial*17+3), uint64(trial*31+5)
		s.Reseed(seed, stream)
		want := NewStream(seed, stream)
		for i := 0; i < 50; i++ {
			if got, w := s.Uint64(), want.Uint64(); got != w {
				t.Fatalf("trial %d step %d: Reseed diverged from NewStream", trial, i)
			}
		}
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		a, b := New(uint64(n+1)), New(uint64(n+1))
		p := make([]int, n)
		b.PermInto(p)
		want := a.Perm(n)
		for i := range want {
			if p[i] != want[i] {
				t.Fatalf("n=%d: PermInto %v != Perm %v", n, p, want)
			}
		}
	}
}

func TestPermIntoIsPermutation(t *testing.T) {
	s := New(8)
	p := make([]int, 64)
	for trial := 0; trial < 50; trial++ {
		s.PermInto(p)
		seen := make([]bool, len(p))
		for _, v := range p {
			if v < 0 || v >= len(p) || seen[v] {
				t.Fatalf("trial %d: not a permutation: %v", trial, p)
			}
			seen[v] = true
		}
	}
}
