package dist

import (
	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// Conversions between the engine's in-memory types and their wire
// images. The wire carries genotypes and counters only; objectives ride
// along for tooling, and everything an engine needs is re-derived
// deterministically on the receiving side (Inject re-evaluates,
// Restore re-ranks).

// toWireIndividual builds the wire image of one individual through
// Allocation: an elite clone's slices alias its Alloc, and a front
// individual, which shares its engine's genome, is materialized here.
// Encode reads the slices synchronously and never retains them.
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

// toWireElites builds one migration payload from elite clones.
func toWireElites(tick, from int, elites []nsga2.Individual) WireElites {
	m := WireElites{Tick: int32(tick), From: int32(from)}
	m.Inds = make([]WireIndividual, len(elites))
	for i := range elites {
		m.Inds[i] = toWireIndividual(&elites[i])
	}
	return m
}

// fromWireElites materializes a received migration payload.
func fromWireElites(m *WireElites) []nsga2.Individual {
	out := make([]nsga2.Individual, len(m.Inds))
	for i := range m.Inds {
		out[i] = fromWireIndividual(&m.Inds[i])
	}
	return out
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

// ticksFromWire converts a run of wire counter shards.
func ticksFromWire(ws []WireShardTick) []nsga2.ShardTick {
	out := make([]nsga2.ShardTick, len(ws))
	for i, w := range ws {
		out[i] = tickFromWire(w)
	}
	return out
}

// segmentToWire converts one engine snapshot. The JSON snapshot schema
// stores genes as []int; the wire narrows them to their int32 gene
// domain (machine indices and order ranks).
func segmentToWire(s *nsga2.Snapshot) WireSegment {
	w := WireSegment{
		Generation: int64(s.Generation),
		RngS:       s.RNG.S,
		RngInc:     s.RNG.Inc,
	}
	w.Genomes = make([]WireGenome, len(s.Population))
	for i, g := range s.Population {
		w.Genomes[i] = WireGenome{Machine: narrow32(g.Machine), Order: narrow32(g.Order)}
	}
	return w
}

// segmentFromWire rebuilds one engine snapshot.
func segmentFromWire(w *WireSegment) *nsga2.Snapshot {
	s := &nsga2.Snapshot{
		Generation: int(w.Generation),
		RNG:        rng.State{S: w.RngS, Inc: w.RngInc},
	}
	s.Population = make([]nsga2.GenomeSnapshot, len(w.Genomes))
	for i, g := range w.Genomes {
		s.Population[i] = nsga2.GenomeSnapshot{Machine: widen32(g.Machine), Order: widen32(g.Order)}
	}
	return s
}

// segmentsToWire converts a shard's snapshots.
func segmentsToWire(snaps []*nsga2.Snapshot) []WireSegment {
	out := make([]WireSegment, len(snaps))
	for i, s := range snaps {
		out[i] = segmentToWire(s)
	}
	return out
}

// segmentsFromWire rebuilds a shard's snapshots.
func segmentsFromWire(ws []WireSegment) []*nsga2.Snapshot {
	out := make([]*nsga2.Snapshot, len(ws))
	for i := range ws {
		out[i] = segmentFromWire(&ws[i])
	}
	return out
}

func narrow32(src []int) []int32 {
	out := make([]int32, len(src))
	for i, v := range src {
		out[i] = int32(v)
	}
	return out
}

func widen32(src []int32) []int {
	out := make([]int, len(src))
	for i, v := range src {
		out[i] = int(v)
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
