package experiment

// Helpers for the external test package. The resume tests open a result
// store, and internal/store imports this package, so they live in
// package experiment_test.
var (
	Subset          = subset
	WithParallelism = withParallelism
)

const TestScale = testScale
