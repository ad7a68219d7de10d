// Package repro reproduces "Efficient and Safe Execution of
// User-Level Code in the Kernel" (Zadok, Callanan, Rai, Sivathanu,
// Traeger; NSF NGS Workshop at IPDPS 2005) as a Go library over a
// simulated Linux-like kernel. See README.md for the architecture and
// EXPERIMENTS.md for the paper-versus-measured results; the public
// entry point is internal/core.
package repro
