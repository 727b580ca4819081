//go:build race

package scenario

// raceEnabled reports a test binary built with the race detector, which
// slows the simulator about tenfold: the long oracles, which run no
// goroutines of their own, check a subset then.
const raceEnabled = true
