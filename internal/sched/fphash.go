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

// The execution-order slot is one uint32: the machine assignment plus
// one (so Dropped packs to zero) in the high 12 bits, the task id in
// the low SlotTaskBits bits. An execution sequence (slot array) maps
// global scheduling position r to PackSlot(machine, task) of the task
// scheduled r-th; it is both the NSGA-II engine's genotype and the
// layout the machine-major kernel consumes (DESIGN.md §12).
const (
	SlotTaskBits = 20
	SlotTaskMask = 1<<SlotTaskBits - 1
	// MaxSlotTasks and MaxSlotMachines bound the instances NewEvaluator
	// accepts. Each leaves its field's all-ones value unused, so no
	// valid slot is ^uint32(0).
	MaxSlotTasks    = SlotTaskMask
	MaxSlotMachines = 1<<(32-SlotTaskBits) - 2
)

// PackSlot packs one task's placement into the execution-order slot
// format. The task must be below MaxSlotTasks and the machine below
// MaxSlotMachines (or Dropped), which NewEvaluator guarantees for every
// allocation it validates.
func PackSlot(machine int32, task int) uint32 {
	return uint32(machine+1)<<SlotTaskBits | uint32(task)
}

// SlotMachine returns the machine a slot assigns (Dropped for a
// dropped task).
func SlotMachine(v uint32) int32 { return int32(v>>SlotTaskBits) - 1 }

// SlotTask returns the task id a slot holds.
func SlotTask(v uint32) int { return int(v & SlotTaskMask) }
