// Package workload implements the benchmark workloads the paper's
// evaluations run: PostMark (§3.3, §3.4), an Am-utils-style compile
// (§3.2, §3.4), an interactive desktop session for trace collection
// (§2.2), and the database-style scans of the Cosy evaluation (§2.3).
// All workloads issue real system calls through sys.Proc, so every
// configuration difference (instrumented FS, guarded allocator,
// attached monitor) shows up in the measured elapsed/system/user
// times exactly as it would on the paper's testbed.
package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/sys"
)

// PostMarkConfig follows Katcher's benchmark parameters: a pool of
// small files, a transaction mix of reads/appends and
// creates/deletes.
type PostMarkConfig struct {
	Dir          string
	InitialFiles int
	Transactions int
	MinSize      int
	MaxSize      int
	// ReadBias is the probability a transaction is a read (vs
	// append); CreateBias the probability the second half is a create
	// (vs delete).
	ReadBias   float64
	CreateBias float64
	Seed       uint64
	// UserThink is the user-mode CPU charged per transaction
	// (PostMark itself does little user work).
	UserThink sim.Cycles
	// Think, when set, replaces the default per-transaction
	// ChargeUser(UserThink) — the kucode evaluation routes the think
	// time through a loaded extension instead of a plain user charge.
	Think func(pr *sys.Proc) error
}

// Request-trace operation names for the instrumented workloads. Each
// marks one logical client-visible operation whose latency the
// critical-path analyzer decomposes.
const (
	OpPostmarkTxn   = "postmark.txn"
	OpCompileUnit   = "compile.unit"
	OpSeqScanBatch  = "dbscan.seq.batch"
	OpRandScanBatch = "dbscan.rand.batch"
)

// DefaultPostMark mirrors the classic defaults scaled to simulation
// size.
func DefaultPostMark() PostMarkConfig {
	return PostMarkConfig{
		Dir:          "/pm",
		InitialFiles: 300,
		Transactions: 2000,
		MinSize:      512,
		MaxSize:      9 << 10,
		ReadBias:     0.5,
		CreateBias:   0.5,
		Seed:         42,
		UserThink:    400,
	}
}

// PostMarkStats reports what the run did.
type PostMarkStats struct {
	Created, Deleted, Read, Appended int
	BytesRead, BytesWritten          int64
}

// PostMark runs the benchmark with one system call per operation.
func PostMark(pr *sys.Proc, cfg PostMarkConfig) (PostMarkStats, error) {
	return RunPostMark(pr, cfg, NewTrap())
}

// PostMarkRing runs the benchmark through the kring data plane, batch
// SQEs per ring_enter crossing.
func PostMarkRing(pr *sys.Proc, cfg PostMarkConfig, batch int) (PostMarkStats, error) {
	return RunPostMark(pr, cfg, NewRing(batch))
}

// RunPostMark runs the benchmark on pr, submitting its operations
// through sub. The transaction mix, its random-draw order and the
// stats are the same on every backend, so only the cost of reaching
// the kernel differs.
func RunPostMark(pr *sys.Proc, cfg PostMarkConfig, sub Submitter) (st PostMarkStats, err error) {
	defer func() { st.BytesRead = sub.BytesRead() }()
	rng := sim.NewRand(cfg.Seed)
	if err := pr.Mkdir(cfg.Dir); err != nil {
		return st, err
	}
	if err := sub.Start(pr, cfg.MaxSize); err != nil {
		return st, err
	}
	think := cfg.Think
	if think == nil {
		think = func(pr *sys.Proc) error {
			pr.P.ChargeUser(cfg.UserThink)
			return nil
		}
	}

	var files []string
	nextID := 0
	create := func() {
		name := fmt.Sprintf("%s/f%06d", cfg.Dir, nextID)
		nextID++
		size := rng.Range(cfg.MinSize, cfg.MaxSize)
		fd := sub.Do(Op{Nr: sys.NrCreat, Path: name})
		sub.Do(Op{Nr: sys.NrWrite, FD: fd, Len: size})
		sub.Do(Op{Nr: sys.NrClose, FD: fd})
		files = append(files, name)
		st.Created++
		st.BytesWritten += int64(size)
	}
	remove := func() {
		if len(files) == 0 {
			return
		}
		i := rng.Intn(len(files))
		name := files[i]
		files[i] = files[len(files)-1]
		files = files[:len(files)-1]
		sub.Do(Op{Nr: sys.NrUnlink, Path: name})
		st.Deleted++
	}

	for i := 0; i < cfg.InitialFiles; i++ {
		create()
	}
	for t := 0; t < cfg.Transactions; t++ {
		sub.Begin(think)
		// Half one: read or append an existing file.
		if len(files) > 0 {
			name := files[rng.Intn(len(files))]
			if rng.Bool(cfg.ReadBias) {
				fd := sub.Do(Op{Nr: sys.NrOpen, Path: name, Flags: sys.ORdonly})
				sub.Do(Op{Nr: sys.NrRead, FD: fd, Len: cfg.MaxSize})
				sub.Do(Op{Nr: sys.NrClose, FD: fd})
				st.Read++
			} else {
				size := rng.Range(128, 2048)
				fd := sub.Do(Op{Nr: sys.NrOpen, Path: name, Flags: sys.OWronly})
				sub.Do(Op{Nr: sys.NrLseek, FD: fd, Whence: sys.SeekEnd})
				sub.Do(Op{Nr: sys.NrWrite, FD: fd, Len: size})
				sub.Do(Op{Nr: sys.NrClose, FD: fd})
				st.Appended++
				st.BytesWritten += int64(size)
			}
		}
		// Half two: create or delete.
		if rng.Bool(cfg.CreateBias) {
			create()
		} else {
			remove()
		}
		if err := sub.End(); err != nil {
			return st, err
		}
	}
	// Cleanup phase.
	for _, name := range files {
		sub.Do(Op{Nr: sys.NrUnlink, Path: name})
		st.Deleted++
	}
	if err := sub.Finish(); err != nil {
		return st, err
	}
	return st, pr.Rmdir(cfg.Dir)
}
