package obs

import "strconv"

// IslandBoard is a fixed set of per-island health gauges for the
// island model: ring-edge mailbox depth, local logical-clock
// tick per island, plus a cross-island
// tick-skew gauge. The island count is frozen at construction (the
// Registry has no labels, so each island gets its own gauge names) and
// every setter is a lock-free atomic store, safe from the islands'
// goroutines. A nil *IslandBoard is a no-op, so the island model can
// call the setters unconditionally.
type IslandBoard struct {
	mailbox []*Gauge
	tick    []*Gauge
	skew    *Gauge
}

// NewIslandBoard registers health gauges for the given island count on
// r: tradeoff_island<i>_mailbox_depth, tradeoff_island<i>_tick, and
// tradeoff_islands_tick_skew.
// Returns nil (the no-op board) when r is nil or islands < 1.
func NewIslandBoard(r *Registry, islands int) *IslandBoard {
	if r == nil || islands < 1 {
		return nil
	}
	b := &IslandBoard{}
	for i := 0; i < islands; i++ {
		idx := strconv.Itoa(i)
		b.mailbox = append(b.mailbox, r.Gauge(
			"tradeoff_island"+idx+"_mailbox_depth",
			"queued migrant batches on island "+idx+"'s outbound ring edge"))
		b.tick = append(b.tick, r.Gauge(
			"tradeoff_island"+idx+"_tick",
			"island "+idx+"'s local generation counter at its last migration tick"))
	}
	b.skew = r.Gauge("tradeoff_islands_tick_skew",
		"spread (max - min) of the islands' local tick counters")
	return b
}

// Islands returns the board's island count (0 for the nil board).
func (b *IslandBoard) Islands() int {
	if b == nil {
		return 0
	}
	return len(b.tick)
}

// SetMailboxDepth records the queued batch count on island i's outbound
// ring edge. Out-of-range i is ignored.
//
//detlint:hotpath
func (b *IslandBoard) SetMailboxDepth(i, depth int) {
	if b == nil || i < 0 || i >= len(b.mailbox) {
		return
	}
	b.mailbox[i].Set(float64(depth))
}

// SetTick records island i's local generation counter and refreshes the
// cross-island skew gauge from the current tick gauges. The skew read
// is a best-effort snapshot under concurrent setters — health gauges
// are monitoring data, not part of the deterministic telemetry stream.
//
//detlint:hotpath
func (b *IslandBoard) SetTick(i, gen int) {
	if b == nil || i < 0 || i >= len(b.tick) {
		return
	}
	b.tick[i].Set(float64(gen))
	lo, hi := b.tick[0].Value(), b.tick[0].Value()
	for _, g := range b.tick[1:] {
		v := g.Value()
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	b.skew.Set(hi - lo)
}

// TickSkew returns the last computed cross-island tick spread.
func (b *IslandBoard) TickSkew() float64 {
	if b == nil {
		return 0
	}
	return b.skew.Value()
}
