//go:build race

package wtp

// Under the race detector sync.Pool drops a quarter of what it is given,
// so msg.WireSize, which Queue calls, allocates its scratch buffer anew.
func init() { raceEnabled = true }
