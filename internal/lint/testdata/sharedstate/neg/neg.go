package neg

import (
	"sync"
	"sync/atomic"
)

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

// run distributes work with every write confined: per-slot results
// indexed by a goroutine-local variable, goroutine-local receivers, a
// channel handoff, and an atomic counter.
func run(items []int) int {
	out := make([]int, len(items))
	done := make(chan int, len(items))
	var hits atomic.Int64
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i, it int) {
			defer wg.Done()
			var local counter
			local.bump()
			sum := 0
			sum += it
			out[i] = sum + local.n
			hits.Add(1)
			done <- i
		}(i, it)
	}
	wg.Wait()
	total := int(hits.Load())
	for range items {
		total += out[<-done]
	}
	return total
}

// prebuilt builds goroutine bodies once, to be launched later with
// go body(); each body writes only its own slot.
//
//detlint:goroutines
func prebuilt(n int) (bodies []func(), out []int) {
	out = make([]int, n)
	for i := 0; i < n; i++ {
		bodies = append(bodies, func() {
			i := i // the body's own slot
			out[i] = i
		})
	}
	return bodies, out
}
