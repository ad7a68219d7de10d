// Command kmonlog runs PostMark with the event monitor attached to
// dcache_lock and a user-space logger consuming the ring through the
// character device — the full Figure 1 pipeline.
//
// Usage:
//
//	kmonlog [-tx n] [-quiet] [-blocking]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sys"
	"repro/internal/vfs"
	"repro/internal/vfs/memfs"
	"repro/internal/workload"
)

func main() {
	tx := flag.Int("tx", 500, "PostMark transactions")
	quiet := flag.Bool("quiet", false, "logger does not write to disk")
	blocking := flag.Bool("blocking", false, "logger uses blocking reads (the paper's proposed fix)")
	flag.Parse()

	s, err := core.New(core.Options{CacheBlocks: 1024})
	if err != nil {
		fatal(err)
	}
	logIO := vfs.NewIOModel(disk.New(disk.SCSI15K()), 4096)
	logIO.DirtyLimit = 16
	if err := s.NS.Mount("/log", memfs.New("logfs", logIO)); err != nil {
		fatal(err)
	}
	s.InstrumentDcache()
	s.Mon.RingEnabled = true

	var done atomic.Bool
	pm := s.Spawn("postmark", func(pr *sys.Proc) error {
		defer done.Store(true)
		cfg := workload.DefaultPostMark()
		cfg.Transactions = *tx
		_, err := workload.PostMark(pr, cfg)
		return err
	})

	lcfg := workload.DefaultLogger()
	lcfg.WriteLog = !*quiet
	lcfg.Blocking = *blocking
	var lst workload.LoggerStats
	lg := s.Spawn("logger", func(pr *sys.Proc) error {
		var err error
		lst, err = workload.Logger(pr, lcfg, done.Load)
		return err
	})

	if err := s.Run(); err != nil {
		fatal(err)
	}

	pu, ps, pw := pm.Times()
	lu, ls, lw := lg.Times()
	fmt.Printf("postmark: user %v, sys %v, wait %v\n", pu, ps, pw)
	fmt.Printf("logger:   user %v, sys %v, wait %v\n", lu, ls, lw)
	fmt.Printf("events: %d logged in kernel, %d delivered to user space, %d dropped (ring full)\n",
		s.Mon.Logged, lst.Events, s.Mon.Dropped)
	fmt.Printf("logger polls: %d (%d empty), %d bytes written to /log\n",
		lst.Polls, lst.EmptyPolls, lst.BytesLogged)
	fmt.Printf("dcache_lock acquisitions: %d\n", s.NS.Dc.Lock.Acquisitions)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kmonlog:", err)
	os.Exit(1)
}
