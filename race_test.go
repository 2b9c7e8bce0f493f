//go:build race

package repro_test

// Under -race sync.Pool drops a share of what is put back, so
// TestBenchmarkAllocs uses each case's maxRace, and the overhead cases'
// means, which move by up to one between runs, may differ by
// overheadSlack.
const (
	raceEnabled   = true
	overheadSlack = 2
)
