package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/sys"
)

// DirSweepConfig is experiment E1's workload: a directory of n files
// listed with full attributes, the readdir+stat way and the
// readdirplus way. "We benchmarked readdirplus against a program
// which did a readdir followed by stat calls for each file" (§2.2).
type DirSweepConfig struct {
	Dir   string
	Files int
	// PerEntryUser is the user CPU spent rendering one `ls -l` line.
	PerEntryUser sim.Cycles
	// FileSize is each file's size (attributes only are read).
	FileSize int
}

// DefaultDirSweep matches the paper's midpoint (1000 files).
func DefaultDirSweep(files int) DirSweepConfig {
	return DirSweepConfig{
		Dir:          "/sweep",
		Files:        files,
		PerEntryUser: 120,
		FileSize:     1024,
	}
}

// DirSweepSetup populates the directory.
func DirSweepSetup(pr *sys.Proc, cfg DirSweepConfig) error {
	if err := pr.Mkdir(cfg.Dir); err != nil {
		return err
	}
	buf, err := pr.Mmap(cfg.FileSize)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Files; i++ {
		fd, err := pr.Creat(fmt.Sprintf("%s/file%06d", cfg.Dir, i))
		if err != nil {
			return err
		}
		if _, err := pr.Write(fd, buf); err != nil {
			return err
		}
		if err := pr.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

// ReaddirStat lists the directory the old way and returns the total
// size of all files (the consumer of the attributes).
func ReaddirStat(pr *sys.Proc, cfg DirSweepConfig) (int64, error) {
	fd, err := pr.Open(cfg.Dir, sys.ORdonly)
	if err != nil {
		return 0, err
	}
	ents, err := pr.Getdents(fd)
	if err != nil {
		return 0, err
	}
	if err := pr.Close(fd); err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		a, err := pr.Stat(cfg.Dir + "/" + e.Name)
		if err != nil {
			return 0, err
		}
		pr.P.ChargeUser(cfg.PerEntryUser)
		total += a.Size
	}
	return total, nil
}

// ReaddirPlusSweep lists the directory with the consolidated call.
func ReaddirPlusSweep(pr *sys.Proc, cfg DirSweepConfig) (int64, error) {
	ents, err := pr.ReaddirPlus(cfg.Dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		pr.P.ChargeUser(cfg.PerEntryUser)
		total += e.Attr.Size
	}
	return total, nil
}

// ExpectedSweepBytes reports what both sweeps should return.
func ExpectedSweepBytes(cfg DirSweepConfig) int64 {
	return int64(cfg.Files) * int64(cfg.FileSize)
}
