//go:build race

package model_test

// maxCheckAllocs gates TestCheckAllocs under -race, whose sync.Pool drops
// a share of the solvers put back: 83.8–84.6 measured, plus 10% headroom.
const maxCheckAllocs = 94
