package pos

import "sync"

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

// run fans work out to goroutines that break every confinement rule:
// a captured scalar accumulator, a constant-index slice write, and a
// mutating method call on a captured receiver.
func run(items []int) int {
	var total int
	var st counter
	out := make([]int, len(items))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, it := range items {
		_ = i
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			mu.Lock()
			total += it
			mu.Unlock()
			out[0] = it
			st.bump()
		}(it)
	}
	wg.Wait()
	return total + out[0] + st.n
}

// prebuilt builds goroutine bodies once, to be launched later with
// go body(), and the bodies write a captured slot every island shares.
//
//detlint:goroutines
func prebuilt(n int) (bodies []func(), out []int) {
	out = make([]int, n)
	for i := 0; i < n; i++ {
		bodies = append(bodies, func() {
			out[0] = i
		})
	}
	return bodies, out
}
