//go:build !race

package service

// raceBuild reports a -race build, whose instrumentation turns some
// allocations the compiler otherwise folds into two.
const raceBuild = false
