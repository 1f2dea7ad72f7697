//go:build asmdebug

package cache

// debugChecks is enabled by the asmdebug build tag: structural invariant
// violations (an MSHR table out of step with its slots) panic.
const debugChecks = true
