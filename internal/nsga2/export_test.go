package nsga2

// RequireDirectEvaluation exposes the direct-evaluation oracle to the
// external tests that run it on the paper data sets.
var RequireDirectEvaluation = requireDirectEvaluation

// StepWithoutInheritance exposes the forced full-simulation step to the
// same external tests.
var StepWithoutInheritance = stepWithoutInheritance
