//go:build race

package explore

// maxMallocsPerTransition gates TestExploreMallocsPerTransition under
// -race, whose sync.Pool drops a share of the objects put back and so
// allocates more per transition.
const maxMallocsPerTransition = 14
