package model

import "repro/history"

// StoreOrderEdges exposes TSO-ax's derived store order to the external
// tests: the store→store pairs it derives between different processors,
// and whether the rules forbid the history outright. ok=false means the
// rules do not apply.
func StoreOrderEdges(s *history.System) (pairs [][2]history.OpID, forbidden, ok bool) {
	forced, _, forbidden, ok := storeOrderEdges(s)
	if forced != nil {
		pairs = forced.Pairs()
	}
	return pairs, forbidden, ok
}
