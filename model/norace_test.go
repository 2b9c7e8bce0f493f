//go:build !race

package model_test

// maxCheckAllocs gates TestCheckAllocs: 73.1 measured, plus 10% headroom.
// It was 378.6 before view problems were solved in pooled, word-indexed
// solvers.
const maxCheckAllocs = 81
