package workload

import (
	"sync"

	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/sim"
	"repro/internal/sys"
)

// DBConfig describes the database-style workload of the Cosy
// evaluation (§2.3): "we modified popular user applications that
// exhibit sequential or random access patterns (e.g., a database) to
// use Cosy."
type DBConfig struct {
	Path    string
	Records int
	RecSize int
	// Lookups is the number of random-scan probes.
	Lookups int
	// ProcessCPU is the per-record user CPU of the unmodified
	// application (predicate evaluation on the record).
	ProcessCPU sim.Cycles
	Seed       uint64
}

// DefaultDB sizes a small table.
func DefaultDB() DBConfig {
	return DBConfig{
		Path:       "/db.tbl",
		Records:    4000,
		RecSize:    256,
		Lookups:    1500,
		ProcessCPU: 300,
		Seed:       13,
	}
}

// DBSetup writes the table file.
func DBSetup(pr *sys.Proc, cfg DBConfig) error {
	fd, err := pr.Creat(cfg.Path)
	if err != nil {
		return err
	}
	buf, err := pr.Mmap(cfg.RecSize)
	if err != nil {
		return err
	}
	// Byte i of record r is byte(r+i): record r is the window of one
	// ramp starting at r mod 256.
	ramp := make([]byte, 256+cfg.RecSize)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	for r := 0; r < cfg.Records; r++ {
		rec := ramp[r&255 : r&255+cfg.RecSize]
		if err := pr.Poke(buf, rec); err != nil {
			return err
		}
		if _, err := pr.Write(fd, buf); err != nil {
			return err
		}
	}
	return pr.Close(fd)
}

// SeqBatch and RandBatch are the request-trace batching granularity:
// one traced request covers SeqBatch sequential records or RandBatch
// random lookups, so per-request latency is large enough to have an
// interesting critical path but fine enough to expose tail behavior.
const (
	SeqBatch  = 64
	RandBatch = 16
)

// SeqScanUser is the unmodified application: a read-per-record loop
// through the syscall interface. Every SeqBatch records form one
// traced request.
func SeqScanUser(pr *sys.Proc, cfg DBConfig) (int64, error) {
	fd, err := pr.Open(cfg.Path, sys.ORdonly)
	if err != nil {
		return 0, err
	}
	buf, err := pr.Mmap(cfg.RecSize)
	if err != nil {
		return 0, err
	}
	var total int64
	reads, open := 0, false
	for {
		if !open {
			pr.BeginOp(OpSeqScanBatch)
			open = true
		}
		n, err := pr.Read(fd, buf)
		if err != nil {
			pr.EndOp()
			return 0, err
		}
		if n == 0 {
			pr.EndOp()
			break
		}
		pr.P.ChargeUser(cfg.ProcessCPU)
		total += int64(n)
		if reads++; reads%SeqBatch == 0 {
			pr.EndOp()
			open = false
		}
	}
	return total, pr.Close(fd)
}

// seqScanCompound builds the Cosy version of the sequential scan.
func seqScanCompound(cfg DBConfig) ([]byte, error) {
	b := lib.New()
	pathOff := b.String(cfg.Path)
	recOff := b.Alloc(cfg.RecSize)
	fd := b.Sys(uint16(sys.NrOpen), b.Const(int64(pathOff)), b.Const(0))
	total := b.Const(0)
	// The in-compound record processing: touch the record header the
	// way the predicate would.
	top := b.Here()
	n := b.Sys(uint16(sys.NrRead), fd, b.Const(int64(recOff)), b.Const(int64(cfg.RecSize)))
	exit := b.Brz(n)
	b.BinInto(total, "+", total, n)
	hdr := b.Load(8, b.Const(int64(recOff)))
	b.Bin("&", hdr, hdr) // predicate evaluation
	b.JmpTo(top)
	exit.Here()
	b.Sys(uint16(sys.NrClose), fd)
	return b.Build(total)
}

// SeqScanCosy runs the scan as a compound on the engine.
func SeqScanCosy(pr *sys.Proc, e *kext.Engine, cfg DBConfig) (int64, error) {
	raw, err := seqScanCompound(cfg)
	if err != nil {
		return 0, err
	}
	return e.ExecRing(pr, raw)
}

// RandScanUser probes random records: lseek + read per lookup. Every
// RandBatch lookups form one traced request.
func RandScanUser(pr *sys.Proc, cfg DBConfig) (int64, error) {
	fd, err := pr.Open(cfg.Path, sys.ORdonly)
	if err != nil {
		return 0, err
	}
	buf, err := pr.Mmap(cfg.RecSize)
	if err != nil {
		return 0, err
	}
	rng := sim.NewRand(cfg.Seed)
	var total int64
	for i := 0; i < cfg.Lookups; i++ {
		if i%RandBatch == 0 {
			pr.BeginOp(OpRandScanBatch)
		}
		rec := rng.Intn(cfg.Records)
		if _, err := pr.Lseek(fd, int64(rec*cfg.RecSize), sys.SeekSet); err != nil {
			pr.EndOp()
			return 0, err
		}
		n, err := pr.Read(fd, buf)
		if err != nil {
			pr.EndOp()
			return 0, err
		}
		pr.P.ChargeUser(cfg.ProcessCPU)
		total += int64(n)
		if (i+1)%RandBatch == 0 || i == cfg.Lookups-1 {
			pr.EndOp()
		}
	}
	return total, pr.Close(fd)
}

// randScanCompound assembles the Cosy random scan: count probes whose
// record sequence comes from an in-compound linear congruential
// generator starting at state x0, so the probe loop never leaves the
// kernel. It also returns the index of the OpConst that loads x0, so
// a caller can rebind the compound to another starting state.
// RandScanCosy runs every lookup in one compound; the batched variant
// replicates the LCG on the host across batches so its full probe
// sequence is identical.
func randScanCompound(cfg DBConfig, x0 int64, count int) (*lang.Compound, int, error) {
	b := lib.New()
	pathOff := b.String(cfg.Path)
	recOff := b.Alloc(cfg.RecSize)
	fd := b.Sys(uint16(sys.NrOpen), b.Const(int64(pathOff)), b.Const(0))
	total := b.Const(0)
	xAt := b.Here()
	x := b.Const(x0)
	a := b.Const(1103515245)
	c := b.Const(12345)
	m := b.Const(1 << 31)
	nrec := b.Const(int64(cfg.Records))
	rsz := b.Const(int64(cfg.RecSize))

	b.CountedLoop(int64(count), func(i lang.Reg) {
		ax := b.Bin("*", a, x)
		axc := b.Bin("+", ax, c)
		b.BinInto(x, "%", axc, m)
		rec := b.Bin("%", x, nrec)
		off := b.Bin("*", rec, rsz)
		b.Sys(uint16(sys.NrLseek), fd, off, b.Const(int64(sys.SeekSet)))
		n := b.Sys(uint16(sys.NrRead), fd, b.Const(int64(recOff)), rsz)
		b.BinInto(total, "+", total, n)
		hdr := b.Load(8, b.Const(int64(recOff)))
		b.Bin("&", hdr, hdr)
	})
	b.Sys(uint16(sys.NrClose), fd)
	comp, err := b.End(total)
	return comp, xAt, err
}

// randScanBatchCompound encodes randScanCompound's compound.
func randScanBatchCompound(cfg DBConfig, x0 int64, count int) ([]byte, error) {
	comp, _, err := randScanCompound(cfg, x0, count)
	if err != nil {
		return nil, err
	}
	return lang.Encode(comp), nil
}

// randScanPlan is the batched random scan's host-side state for one
// table shape (Path, Records, RecSize): the compound of a full
// RandBatch-lookup batch, that of the shorter last batch, and the
// buffer each batch is encoded into. A plan is built on a shape's
// first scan and reused by later scans of the same shape, each of
// which patches only the starting generator state per batch.
type randScanPlan struct {
	path             string
	records, recSize int
	full, tail       randScanComp
	raw              []byte
}

// randScanComp is an assembled batch compound and the index of the
// OpConst that loads its starting generator state.
type randScanComp struct {
	comp  *lang.Compound
	xAt   int
	count int // the lookup count comp was assembled for, 0 before the first
}

// randScanPlans keeps plans between scans. A scan owns the plan it
// takes until it puts it back, so machines scanning from several
// goroutines never share one.
var randScanPlans sync.Pool

// randScanBatches calls run with the encoded compound of each
// RandBatch-lookup batch of the random scan, in order. The compounds
// come from the shape's plan, assembled at most once per batch length
// and rebound for every batch: only the starting generator state
// changes, and each batch is encoded into the plan's buffer, so raw is
// valid only until run returns.
func randScanBatches(cfg DBConfig, run func(raw []byte) error) error {
	p, _ := randScanPlans.Get().(*randScanPlan)
	if p == nil || p.path != cfg.Path || p.records != cfg.Records || p.recSize != cfg.RecSize {
		p = &randScanPlan{path: cfg.Path, records: cfg.Records, recSize: cfg.RecSize}
	}
	defer randScanPlans.Put(p)
	x := lcgSeed(cfg)
	for start := 0; start < cfg.Lookups; start += RandBatch {
		count := min(RandBatch, cfg.Lookups-start)
		b := &p.full
		if count < RandBatch {
			b = &p.tail
		}
		if b.count != count {
			comp, xAt, err := randScanCompound(cfg, x, count)
			if err != nil {
				return err
			}
			*b = randScanComp{comp: comp, xAt: xAt, count: count}
		}
		b.comp.Code[b.xAt].Imm = x
		p.raw = lang.AppendEncode(p.raw[:0], b.comp)
		if err := run(p.raw); err != nil {
			return err
		}
		// Advance the host's mirror of the in-compound generator.
		for j := 0; j < count; j++ {
			x = (1103515245*x + 12345) % (1 << 31)
		}
	}
	return nil
}

// RandScanCosyBatched runs the random scan as one compound per
// RandBatch lookups, each a traced request, so its per-request
// latency distribution is directly comparable to RandScanUser's.
func RandScanCosyBatched(pr *sys.Proc, e *kext.Engine, cfg DBConfig) (int64, error) {
	var total int64
	err := randScanBatches(cfg, func(raw []byte) error {
		pr.BeginOp(OpRandScanBatch)
		n, err := e.ExecRing(pr, raw)
		pr.EndOp()
		total += n
		return err
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// RandScanCosy runs the random scan as one compound.
func RandScanCosy(pr *sys.Proc, e *kext.Engine, cfg DBConfig) (int64, error) {
	raw, err := randScanBatchCompound(cfg, lcgSeed(cfg), cfg.Lookups)
	if err != nil {
		return 0, err
	}
	return e.ExecRing(pr, raw)
}

// lcgSeed is the Cosy random scan's initial generator state.
func lcgSeed(cfg DBConfig) int64 { return int64(cfg.Seed%1_000_003 + 1) }

// Sanity helper shared by tests.
func dbSize(cfg DBConfig) int64 { return int64(cfg.Records) * int64(cfg.RecSize) }
