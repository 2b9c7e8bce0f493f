//go:build !race

package explore

// maxMallocsPerTransition gates TestExploreMallocsPerTransition.
const maxMallocsPerTransition = 2.0
