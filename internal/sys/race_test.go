//go:build race

package sys

// The race detector drops sync.Pool entries at random, so a failing
// open may format its error with a fresh fmt printer and buffer.
func init() { fmtPoolSlack = 4 }
