package sys

import (
	"errors"
	"fmt"

	"repro/internal/kperf"
	"repro/internal/kprobe"
	"repro/internal/sim"
)

// ErrNoProbes is returned when the kernel was booted without a kprobe
// subsystem.
var ErrNoProbes = errors.New("sys: kprobe subsystem not available")

// probeSpecBytes models the copyin size of an attach spec: the
// program source, a fixed header (tracepoint, entry, counts), and the
// map declarations.
func probeSpecBytes(spec kprobe.Spec) int {
	n := len(spec.Source) + len(spec.Entry) + 16
	for _, m := range spec.Maps {
		n += len(m.Name) + 2
	}
	return n
}

// ProbeAttach is the probe_attach system call: copy in the spec,
// compile + verify + instrument the program in the kernel, and attach
// it at its tracepoint. The returned id names the program for the
// calling process's ProbeRead and ProbeDetach. Verification cost is
// charged to the calling process under the probe subsystem; a rejected
// program costs only its compile/verify time and attaches nothing.
func (pr *Proc) ProbeAttach(spec kprobe.Spec) (int, error) {
	in := probeSpecBytes(spec)
	pr.enter(NrProbeAttach, in)
	id := -1
	var err error
	if pr.K.Probes == nil {
		err = ErrNoProbes
	} else {
		var cost sim.Cycles
		id, cost, err = pr.K.Probes.Attach(spec)
		if err == nil {
			pg, _ := pr.K.Probes.Prog(id)
			pg.Owner = pr.P.PID
		}
		if cost > 0 {
			pr.chargeExec(kperf.SubProbe, cost)
		}
	}
	pr.exit(NrProbeAttach, in, 0)
	if err != nil {
		return -1, err
	}
	return id, nil
}

// ownProbe checks that program id is one the calling process attached:
// another process's probe is as unknown as one never attached.
func (pr *Proc) ownProbe(id int) error {
	if pr.K.Probes == nil {
		return ErrNoProbes
	}
	_, err := pr.K.Probes.Lookup(pr.P.PID, id)
	return err
}

// ProbeDetach is the probe_detach system call: remove an attached
// program; once a tracepoint has no programs left it costs zero cycles
// again.
func (pr *Proc) ProbeDetach(id int) error {
	pr.enter(NrProbeDetach, 8)
	err := pr.ownProbe(id)
	if err == nil {
		err = pr.K.Probes.Detach(id)
	}
	pr.exit(NrProbeDetach, 8, 0)
	return err
}

// ProbeRead is the probe_read system call: serialize program id's
// aggregation maps kernel-side and copy the summary out in a single
// crossing — the read path that replaces draining an event ring.
func (pr *Proc) ProbeRead(id int, ub UserBuf) (int, error) {
	pr.enter(NrProbeRead, 8)
	var data []byte
	err := pr.ownProbe(id)
	if err == nil {
		var cost sim.Cycles
		data, cost, err = pr.K.Probes.Read(id)
		if cost > 0 {
			pr.chargeExec(kperf.SubProbe, cost)
		}
	}
	out := 0
	if err == nil {
		if len(data) > ub.Len {
			err = fmt.Errorf("sys: probe_read buffer too small (%d bytes, need %d)", ub.Len, len(data))
		} else if werr := pr.P.UAS.View(ub.Addr, ub.Len).CopyOut(0, data); werr != nil {
			err = werr
		} else {
			out = len(data)
		}
	}
	pr.exit(NrProbeRead, 8, out)
	if err != nil {
		return 0, err
	}
	return out, nil
}
