package dvfs

// RequireMatchesWalk exports the walk oracle to the external tests,
// which build the paper's data sets.
var RequireMatchesWalk = requireMatchesWalk
