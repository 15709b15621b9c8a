package dist

// Benchmarks for the distributed-islands slice of the regression gate
// (Makefile bench-dist, BENCH_dist.json): the wire codec's hot paths in
// isolation, and full coordinator round trips over in-process pipes
// against the same ring run by Islands in one process as the baseline.
// On a
// multi-core host the cluster benchmarks also measure the wall-clock
// speedup of sharding; on a single core they still gate the wire and
// scheduling overhead, which is what regresses silently.

import (
	"bytes"
	"io"
	"testing"

	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// discardConn is a write-only transport for encode benchmarks.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// nopCloser adapts a bytes.Buffer to the Conn transport.
type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// benchElites builds a migration payload of the benchmark's canonical
// shape: two elites over a 40-task genome, the default migration batch
// of every -distribute run in this repo's experiments.
func benchElites(inds, genes int) *WireElites {
	m := &WireElites{Tick: 3, From: 1, Inds: make([]WireIndividual, inds)}
	for i := range m.Inds {
		mach := make([]int32, genes)
		ord := make([]int32, genes)
		for j := range mach {
			mach[j] = int32(j % 8)
			ord[j] = int32(j)
		}
		m.Inds[i] = WireIndividual{
			Machine:    mach,
			Order:      ord,
			Objectives: []float64{float64(i) + 0.5, 1 / (float64(i) + 1)},
		}
	}
	return m
}

func BenchmarkDistEncodeElites(b *testing.B) {
	conn := NewConn(discardConn{}, nil)
	m := benchElites(2, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.SendElites(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistDecodeElites(b *testing.B) {
	var buf bytes.Buffer
	conn := NewConn(nopCloser{&buf}, nil)
	if err := conn.SendElites(benchElites(2, 40)); err != nil {
		b.Fatal(err)
	}
	payload := buf.Bytes()[5:] // strip the frame header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeElites(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClusterRun is one full distributed run per iteration: spawn the
// in-process worker goroutines over net.Pipe, run 10 generations of a
// 4-island ring, pull the merged front, and tear down.
func benchClusterRun(b *testing.B, workers int) {
	e := newEval(b, 40)
	cfg := distCfg(4, 5, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := startCluster(b, e, cfg, 99, workers, nil, nil)
		if err := c.coord.Run(10); err != nil {
			b.Fatal(err)
		}
		if _, err := c.coord.Front(); err != nil {
			b.Fatal(err)
		}
		c.stop(b)
	}
}

func BenchmarkDistClusterRun1Worker(b *testing.B)  { benchClusterRun(b, 1) }
func BenchmarkDistClusterRun2Workers(b *testing.B) { benchClusterRun(b, 2) }
func BenchmarkDistClusterRun4Workers(b *testing.B) { benchClusterRun(b, 4) }

// BenchmarkDistInProcessRun is the in-process baseline the cluster
// benchmarks are read against: the same ring stepped by nsga2.Islands
// in this process, same seed, same generations, no wire.
func BenchmarkDistInProcessRun(b *testing.B) {
	e := newEval(b, 40)
	cfg := distCfg(4, 5, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		isl, err := nsga2.NewIslands(e, cfg, rng.New(99))
		if err != nil {
			b.Fatal(err)
		}
		isl.Run(10)
		isl.ParetoFront()
	}
}
