package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/sys"
)

// CompileConfig models the paper's Am-utils compile: a CPU-intensive
// build that reads source files, burns user CPU "compiling" them, and
// writes object files, with the metadata traffic (stat, readdir) a
// build system generates.
type CompileConfig struct {
	Dir     string
	Sources int
	// SrcSize is the mean source file size.
	SrcSize int
	// CPUPerByte is user-mode compile work per source byte; compilers
	// are CPU-bound, which is what makes this workload's elapsed time
	// dominated by user time.
	CPUPerByte sim.Cycles
	// ToolchainSys is the generic (non-file-system) kernel time of
	// spawning and servicing one compiler process: fork, exec, page
	// faults, pipes. On the paper's machine this is on the order of a
	// millisecond per cc1 invocation, and it is the reason the
	// instrumented file system moves a compile's system time so much
	// less than PostMark's (E7).
	ToolchainSys sim.Cycles
	Seed         uint64
}

// DefaultCompile approximates Am-utils (~50k lines across ~200
// files) scaled for simulation.
func DefaultCompile() CompileConfig {
	return CompileConfig{
		Dir:          "/src",
		Sources:      150,
		SrcSize:      12 << 10,
		CPUPerByte:   90,
		ToolchainSys: 2_300_000, // ~1.4ms of fork/exec/fault work per file
		Seed:         7,
	}
}

// CompileStats reports build activity.
type CompileStats struct {
	Compiled  int
	BytesRead int64
	BytesOut  int64
}

// CompileSetup creates the source tree (not timed separately; call
// before measuring if cold trees matter).
func CompileSetup(pr *sys.Proc, cfg CompileConfig) error {
	if err := pr.Mkdir(cfg.Dir); err != nil {
		return err
	}
	rng := sim.NewRand(cfg.Seed)
	buf, err := pr.Mmap(cfg.SrcSize * 2)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Sources; i++ {
		fd, err := pr.Creat(fmt.Sprintf("%s/mod%04d.c", cfg.Dir, i))
		if err != nil {
			return err
		}
		size := cfg.SrcSize/2 + rng.Intn(cfg.SrcSize)
		ub := sys.UserBuf{Addr: buf.Addr, Len: size}
		if _, err := pr.Write(fd, ub); err != nil {
			return err
		}
		if err := pr.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

// Compile runs the build: for each source, stat it (make's dependency
// check), read it, compile (user CPU), and write the object file.
func Compile(pr *sys.Proc, cfg CompileConfig) (CompileStats, error) {
	var st CompileStats
	buf, err := pr.Mmap(cfg.SrcSize * 2)
	if err != nil {
		return st, err
	}
	// make scans the directory first.
	fd, err := pr.Open(cfg.Dir, sys.ORdonly)
	if err != nil {
		return st, err
	}
	ents, err := pr.Getdents(fd)
	if err != nil {
		return st, err
	}
	if err := pr.Close(fd); err != nil {
		return st, err
	}
	for _, e := range ents {
		path := cfg.Dir + "/" + e.Name
		if len(e.Name) < 2 || e.Name[len(e.Name)-1] != 'c' {
			continue
		}
		// Each translation unit — stat, read, compile, emit — is one
		// traced request.
		pr.BeginOp(OpCompileUnit)
		err := func() error {
			a, err := pr.Stat(path)
			if err != nil {
				return err
			}
			// Spawn the compiler: generic kernel work outside the FS.
			pr.P.ChargeSys(cfg.ToolchainSys)
			fd, err := pr.Open(path, sys.ORdonly)
			if err != nil {
				return err
			}
			total := 0
			for {
				n, err := pr.Read(fd, buf)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
				total += n
			}
			if err := pr.Close(fd); err != nil {
				return err
			}
			if int64(total) != a.Size {
				return fmt.Errorf("workload: short read: %d of %d", total, a.Size)
			}
			// The compile itself.
			pr.P.ChargeUser(sim.Cycles(total) * cfg.CPUPerByte)
			// Emit the object file (~40% of source size).
			objSize := total * 2 / 5
			ofd, err := pr.Creat(path[:len(path)-1] + "o")
			if err != nil {
				return err
			}
			ub := sys.UserBuf{Addr: buf.Addr, Len: objSize}
			if _, err := pr.Write(ofd, ub); err != nil {
				return err
			}
			if err := pr.Close(ofd); err != nil {
				return err
			}
			st.Compiled++
			st.BytesRead += int64(total)
			st.BytesOut += int64(objSize)
			return nil
		}()
		pr.EndOp()
		if err != nil {
			return st, err
		}
	}
	return st, nil
}
