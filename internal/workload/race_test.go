//go:build race

package workload

// The race detector's sync.Pool drops a quarter of what it is given,
// so a batched scan may find no plan for its shape and build one.
func init() { poolDropsPlans = true }
