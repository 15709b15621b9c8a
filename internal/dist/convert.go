package dist

import (
	"tradeoff/internal/nsga2"
	"tradeoff/internal/sched"
)

// Conversions between the engine's in-memory types and their wire
// images. The wire carries genotypes and counters only; objectives ride
// along for tooling, and everything an engine needs is re-derived
// deterministically on the receiving side (Inject re-evaluates).

// toWireIndividual builds the wire image of one front individual
// through Allocation: a front individual, which shares its engine's
// genome, is materialized here. Encode reads the slices synchronously
// and never retains them. The per-tick migration path does not come
// here: the wire edges encode from reused buffers (worker.go).
func toWireIndividual(ind *nsga2.Individual) WireIndividual {
	a := ind.Allocation()
	return WireIndividual{
		Machine:    a.Machine,
		Order:      a.Order,
		Objectives: ind.Objectives,
	}
}

// fromWireIndividual materializes a received individual. The wire
// slices are freshly allocated by the decoder, so the allocation owns
// them.
func fromWireIndividual(w *WireIndividual) nsga2.Individual {
	return nsga2.Individual{
		Alloc:      &sched.Allocation{Machine: w.Machine, Order: w.Order},
		Objectives: w.Objectives,
	}
}

// tickToWire flattens an engine counter shard onto the wire.
func tickToWire(t nsga2.ShardTick) WireShardTick {
	return WireShardTick{
		FullEvals:         t.Sess.FullEvals,
		DeltaEvals:        t.Sess.DeltaEvals,
		MachinesSimulated: t.Sess.MachinesSimulated,
		MachinesInherited: t.Sess.MachinesInherited,
		ArenaInUse:        int64(t.ArenaInUse),
		ArenaSlots:        int64(t.ArenaSlots),
		Migrants:          int64(t.Migrants),
	}
}

// tickFromWire rebuilds an engine counter shard from its wire image.
func tickFromWire(w WireShardTick) nsga2.ShardTick {
	return nsga2.ShardTick{
		Sess: sched.DeltaStats{
			FullEvals:         w.FullEvals,
			DeltaEvals:        w.DeltaEvals,
			MachinesSimulated: w.MachinesSimulated,
			MachinesInherited: w.MachinesInherited,
		},
		ArenaInUse: int(w.ArenaInUse),
		ArenaSlots: int(w.ArenaSlots),
		Migrants:   int(w.Migrants),
	}
}

// ticksToWire converts a run of counter shards.
func ticksToWire(ts []nsga2.ShardTick) []WireShardTick {
	out := make([]WireShardTick, len(ts))
	for i, t := range ts {
		out[i] = tickToWire(t)
	}
	return out
}

// frontToWire converts a shard's per-island fronts.
func frontToWire(fronts [][]nsga2.Individual) WireFront {
	m := WireFront{Fronts: make([][]WireIndividual, len(fronts))}
	for f, front := range fronts {
		m.Fronts[f] = make([]WireIndividual, len(front))
		for i := range front {
			m.Fronts[f][i] = toWireIndividual(&front[i])
		}
	}
	return m
}

// frontFromWire flattens received per-island fronts into the union the
// coordinator merges, preserving island order.
func frontFromWire(m *WireFront) []nsga2.Individual {
	var out []nsga2.Individual
	for f := range m.Fronts {
		for i := range m.Fronts[f] {
			out = append(out, fromWireIndividual(&m.Fronts[f][i]))
		}
	}
	return out
}
