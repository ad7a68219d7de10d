package workload

import (
	"fmt"

	"repro/internal/kring"
	"repro/internal/sys"
)

// OpSeqScanRing is the traced request of the ring scan variants: one
// request per ring_enter.
const OpSeqScanRing = "dbscan.seq.ring"

// SeqScanRing is the sequential scan with batched submissions: the
// file is opened once, then `batch` read SQEs share each ring_enter
// crossing, every record landing in its own window of the shared data
// area. Per-record predicate CPU is charged as the completions are
// reaped, mirroring the unmodified application's processing loop.
func SeqScanRing(pr *sys.Proc, cfg DBConfig, batch int) (int64, error) {
	fd, err := pr.Open(cfg.Path, sys.ORdonly)
	if err != nil {
		return 0, err
	}
	if batch < 1 {
		batch = 1
	}
	entries := nextPow2(batch)
	if entries > kring.MaxEntries {
		entries = kring.MaxEntries
	}
	batchBytes := batch * cfg.RecSize
	dataBytes := batchBytes
	if dataBytes > sys.MaxRingData {
		dataBytes = sys.MaxRingData
	}
	windows := dataBytes / cfg.RecSize
	if windows < 1 {
		return 0, fmt.Errorf("dbscan ring: record size %d exceeds ring data ceiling", cfg.RecSize)
	}
	if batch > windows {
		batch = windows
	}
	h, err := pr.RingSetup(entries, dataBytes)
	if err != nil {
		return 0, err
	}
	var total int64
	for eof := false; !eof; {
		for i := 0; i < batch; i++ {
			if err := h.Push(&kring.SQE{Op: uint16(sys.NrRead), Args: [4]int64{int64(fd)},
				DataOff: uint32(i * cfg.RecSize), DataLen: uint32(cfg.RecSize)}); err != nil {
				return 0, err
			}
		}
		pr.BeginOp(OpSeqScanRing)
		n, err := h.Enter()
		pr.EndOp()
		if err != nil {
			return 0, err
		}
		for i := int64(0); i < n; i++ {
			cqe, herr, err := h.Pop()
			if err != nil {
				return 0, err
			}
			if herr != nil {
				return 0, herr
			}
			if cqe.Res == 0 {
				eof = true
				continue
			}
			pr.P.ChargeUser(cfg.ProcessCPU)
			total += cqe.Res
		}
	}
	if err := h.Close(); err != nil {
		return 0, err
	}
	return total, pr.Close(fd)
}

// PumpSource is the anycall extension of SeqScanAnycall: as long as
// the previous read returned data, re-stage the [read, anycall]
// template block at data offset `arg` (verdict kind 2), so the scan
// keeps pumping reads without leaving the kernel; a zero-byte read
// ends the loop (verdict 0). Callers load it with
// pr.KuLoad(sys.KuSpec{Source: PumpSource, Entry: PumpEntry, ...})
// and pass the id to SeqScanAnycall (the kgcc options stay the
// caller's choice — workload cannot name kgcc under layering).
const PumpSource = `
int pump(int pos, int prev, int err, int blk) {
	if (prev > 0) { return (blk * 8) + 2; }
	return 0;
}`

// PumpEntry is PumpSource's entry point.
const PumpEntry = "pump"

// SeqScanAnycall runs the whole sequential scan in ONE ring_enter
// (modulo completion-queue backpressure): a read SQE is chased by an
// anycall SQE whose extension re-stages the pair until the read hits
// EOF. ext is a loaded kucode extension compiled from PumpSource.
func SeqScanAnycall(pr *sys.Proc, cfg DBConfig, ext int) (int64, error) {
	fd, err := pr.Open(cfg.Path, sys.ORdonly)
	if err != nil {
		return 0, err
	}
	entries := kring.MaxEntries
	dataBytes := cfg.RecSize + 8 + 2*kring.SQESize
	h, err := pr.RingSetup(entries, dataBytes)
	if err != nil {
		return 0, err
	}
	// Template block at tmplOff: [count=2][read SQE][anycall SQE]. The
	// read reuses one record window (the predicate runs per record, so
	// the window's lifetime is one iteration, like the classic buf).
	tmplOff := cfg.RecSize
	readSQE := kring.SQE{Op: uint16(sys.NrRead), Args: [4]int64{int64(fd)},
		DataLen: uint32(cfg.RecSize), UserTag: 1}
	anySQE := kring.SQE{Op: kring.OpAnycall, Ext: uint32(ext),
		Args: [4]int64{int64(tmplOff)}, UserTag: 2}
	blk := make([]byte, 8+2*kring.SQESize)
	blk[0] = 2
	kring.EncodeSQE(blk[8:8+kring.SQESize], &readSQE)
	kring.EncodeSQE(blk[8+kring.SQESize:], &anySQE)
	bv, err := h.View(tmplOff, len(blk))
	if err != nil {
		return 0, err
	}
	if err := bv.CopyOut(0, blk); err != nil {
		return 0, err
	}
	if err := h.Push(&readSQE); err != nil {
		return 0, err
	}
	if err := h.Push(&anySQE); err != nil {
		return 0, err
	}

	var total int64
	for {
		pr.BeginOp(OpSeqScanRing)
		n, err := h.Enter()
		pr.EndOp()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
		for i := int64(0); i < n; i++ {
			cqe, herr, err := h.Pop()
			if err != nil {
				return 0, err
			}
			if herr != nil {
				return 0, herr
			}
			if cqe.UserTag == 1 && cqe.Res > 0 {
				pr.P.ChargeUser(cfg.ProcessCPU)
				total += cqe.Res
			}
		}
	}
	if err := h.Close(); err != nil {
		return 0, err
	}
	return total, pr.Close(fd)
}
