package sched

// Deterministic fingerprint primitives for the evaluation layer's
// machine-bucket signatures, which decide parent-row inheritance. The
// mixing is splitmix-style — xor-multiply absorption with the
// splitmix64 finalizer — built from compile-time constants only: no
// hash/maphash (whose per-process seed would make inheritance differ
// between runs) and no other runtime-seeded state, so fingerprints are
// bit-identical across processes, platforms, and worker counts.

const (
	// FPGamma is the splitmix64 increment ("golden gamma"); fingerprint
	// lane seeds are its weyl-sequence multiples, mixed.
	FPGamma = 0x9e3779b97f4a7c15
	// FPMul1/FPMul2 are the splitmix64 finalizer multipliers; FPMul1
	// doubles as the per-element absorption multiplier.
	FPMul1 = 0xbf58476d1ce4e5b9
	FPMul2 = 0x94d049bb133111eb
)

// Mix64 is the splitmix64 finalizer: an invertible avalanche over all 64
// bits.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * FPMul1
	z = (z ^ (z >> 27)) * FPMul2
	return z ^ (z >> 31)
}

// PackSlot packs one task's placement into the execution-order slot
// format the machine-major kernel consumes: machine assignment (shifted
// so Dropped packs to zero) in the high half, task id in the low half.
// An execution-order slot array maps global scheduling order o to
// PackSlot(machine, task) of the task scheduled o-th; dropped tasks are
// recognized by a zero high half.
func PackSlot(machine int32, task int) uint64 {
	return uint64(uint32(machine+1))<<32 | uint64(uint32(task))
}
