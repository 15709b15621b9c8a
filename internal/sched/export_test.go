package sched

// RequireShareInvisible exports the sharing oracle to the external
// tests, which build the paper's data sets.
var RequireShareInvisible = requireShareInvisible

// CompiledFuncs returns how many functions e compiled: its TUF table
// entries and its function records, which must agree.
func CompiledFuncs(e *Evaluator) (entries, records int) { return e.tufs.Len(), len(e.funcs) }
