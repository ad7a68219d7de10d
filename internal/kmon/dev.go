package kmon

import (
	"encoding/binary"

	"repro/internal/kernel"
	"repro/internal/vfs"
)

// Dev is the character device exposing the ring buffer to user
// space. Reads drain whole events (EventBytes each) in bulk and
// never block: an empty ring returns 0 bytes, which is why the
// paper's polling logger burns a full CPU.
type Dev struct {
	Mon *Monitor
}

// DevRead implements vfs.Device.
func (d *Dev) DevRead(p *kernel.Process, buf []byte) (int, error) {
	n := 0
	for n+EventBytes <= len(buf) {
		ev, ok := d.Mon.Ring.TryPop()
		if !ok {
			break
		}
		encodeEvent(buf[n:], ev)
		n += EventBytes
	}
	return n, nil
}

// DevWrite implements vfs.Device; the event device is read-only.
func (d *Dev) DevWrite(p *kernel.Process, data []byte) (int, error) {
	return 0, vfs.ErrInval
}

// encodeEvent serializes ev into 24 bytes, little endian.
func encodeEvent(b []byte, ev Event) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], ev.Obj)
	le.PutUint32(b[8:], uint32(ev.Type))
	le.PutUint32(b[12:], uint32(ev.File)|uint32(uint16(ev.Line))<<16)
	le.PutUint64(b[16:], uint64(ev.Time))
}

// DecodeEvent is the inverse of the device's serialization; user
// space (libkernevents) uses it.
func DecodeEvent(b []byte) Event {
	le := binary.LittleEndian
	fl := le.Uint32(b[12:])
	return Event{
		Obj:  le.Uint64(b[0:]),
		Type: EventType(le.Uint32(b[8:])),
		File: FileID(fl & 0xFFFF),
		Line: int32(fl >> 16),
		Time: simCycles(le.Uint64(b[16:])),
	}
}

var _ vfs.Device = (*Dev)(nil)
