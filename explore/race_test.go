//go:build race

package explore

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// objects put back and so allocates more per transition.
const raceEnabled = true
