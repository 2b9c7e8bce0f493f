//go:build !race

package repro_test

// Without -race every pooled object comes back, so TestBenchmarkAllocs
// uses each case's maxAllocs and compares the overhead cases exactly.
const (
	raceEnabled   = false
	overheadSlack = 0
)
