//go:build !asmdebug

package cache

// debugChecks gates structural invariant assertions. Release builds
// compile the checks away entirely; build with -tags asmdebug to run
// them.
const debugChecks = false
