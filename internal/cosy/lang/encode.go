package lang

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Wire format of an encoded compound, all little-endian:
//
//	magic   u32  "CSY1"
//	nregs   u16
//	shmsize u32
//	ninit   u16
//	ninstr  u32
//	init entries: off u32, len u32, bytes
//	instructions: op u8, sub u8, dst u16, a u16, b u16,
//	              imm i64, nargs u8, args u16 each
//
// This is the "compound buffer" the user library fills and the kernel
// extension decodes.

const magic = 0x31595343 // "CSY1"

var le = binary.LittleEndian

// instrFixed is the fixed portion of one encoded instruction.
const instrFixed = 1 + 1 + 2 + 2 + 2 + 8 + 1

// Encode serializes the compound into the compound-buffer format.
func Encode(c *Compound) []byte { return AppendEncode(nil, c) }

// AppendEncode appends the encoded compound to dst and returns the
// extended buffer. A caller that encodes compound after compound into
// one buffer (AppendEncode(buf[:0], c)) allocates only when a compound
// outgrows every earlier one.
func AppendEncode(dst []byte, c *Compound) []byte {
	size := hdrSize
	for _, ini := range c.Init {
		size += 8 + len(ini.Data)
	}
	for _, in := range c.Code {
		size += instrFixed + 2*len(in.Args)
	}
	dst = slices.Grow(dst, size)
	o := len(dst)
	out := dst[:o+size]
	le.PutUint32(out[o:], magic)
	o += 4
	le.PutUint16(out[o:], uint16(c.NRegs))
	o += 2
	le.PutUint32(out[o:], uint32(c.ShmSize))
	o += 4
	le.PutUint16(out[o:], uint16(len(c.Init)))
	o += 2
	le.PutUint32(out[o:], uint32(len(c.Code)))
	o += 4
	for _, ini := range c.Init {
		le.PutUint32(out[o:], uint32(ini.Off))
		o += 4
		le.PutUint32(out[o:], uint32(len(ini.Data)))
		o += 4
		copy(out[o:], ini.Data)
		o += len(ini.Data)
	}
	for _, in := range c.Code {
		out[o] = byte(in.Op)
		out[o+1] = in.Sub
		le.PutUint16(out[o+2:], uint16(in.Dst))
		le.PutUint16(out[o+4:], uint16(in.A))
		le.PutUint16(out[o+6:], uint16(in.B))
		le.PutUint64(out[o+8:], uint64(in.Imm))
		out[o+16] = byte(len(in.Args))
		o += instrFixed
		for _, a := range in.Args {
			le.PutUint16(out[o:], uint16(a))
			o += 2
		}
	}
	return out
}

// ErrMalformed reports a compound buffer the decoder rejects.
var ErrMalformed = errors.New("cosy: malformed compound")

// hdrSize is the fixed header: magic, nregs, shmsize, ninit, ninstr.
const hdrSize = 4 + 2 + 4 + 2 + 4

// checkHeader rejects a buffer too short for the header or without
// the magic.
func checkHeader(buf []byte) error {
	if len(buf) < hdrSize {
		return fmt.Errorf("%w: truncated at offset 0", ErrMalformed)
	}
	if le.Uint32(buf) != magic {
		return fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	return nil
}

// ShmSize reads the data-segment size an encoded compound's header
// asks for, without decoding the rest.
func ShmSize(buf []byte) (int, error) {
	if err := checkHeader(buf); err != nil {
		return 0, err
	}
	return int(le.Uint32(buf[6:])), nil
}

// Decode parses an encoded compound into a new Compound; see
// DecodeInto.
func Decode(buf []byte) (*Compound, error) {
	c := &Compound{}
	if err := DecodeInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeInto parses an encoded compound into c, performing full
// bounds checking on the buffer — this is the kernel's first line of
// defense against hand-crafted compounds. It reuses c's storage, so a
// caller decoding compound after compound into one Compound allocates
// only when a compound outgrows every earlier one. Init data alias
// buf. On error c's contents are unspecified.
func DecodeInto(c *Compound, buf []byte) error {
	need := func(n int, o int) error {
		if o+n > len(buf) {
			return fmt.Errorf("%w: truncated at offset %d", ErrMalformed, o)
		}
		return nil
	}
	if err := checkHeader(buf); err != nil {
		return err
	}
	o := 4
	c.NRegs = int(le.Uint16(buf[o:]))
	o += 2
	c.ShmSize = int(le.Uint32(buf[o:]))
	o += 4
	ninit := int(le.Uint16(buf[o:]))
	o += 2
	ninstr := int(le.Uint32(buf[o:]))
	o += 4
	if ninstr > 1<<20 {
		return fmt.Errorf("%w: unreasonable instruction count %d", ErrMalformed, ninstr)
	}
	c.Init = c.Init[:0]
	for i := 0; i < ninit; i++ {
		if err := need(8, o); err != nil {
			return err
		}
		off := int(le.Uint32(buf[o:]))
		n := int(le.Uint32(buf[o+4:]))
		o += 8
		if n > len(buf) {
			return fmt.Errorf("%w: init blob of %d bytes", ErrMalformed, n)
		}
		if err := need(n, o); err != nil {
			return err
		}
		c.Init = append(c.Init, ShmInit{Off: off, Data: buf[o : o+n : o+n]})
		o += n
	}
	// The counts are untrusted: size Code for no more instructions,
	// and the Args backing for no more registers, than the remaining
	// bytes can hold. Every Args then slices one backing array that
	// appends never move.
	if n := min(ninstr, (len(buf)-o)/instrFixed); cap(c.Code) < n {
		c.Code = make([]Instr, 0, n)
	}
	if n := (len(buf) - o) / 2; cap(c.args) < n {
		c.args = make([]Reg, 0, n)
	}
	c.Code, c.args = c.Code[:0], c.args[:0]
	for i := 0; i < ninstr; i++ {
		if err := need(instrFixed, o); err != nil {
			return err
		}
		in := Instr{
			Op:  Op(buf[o]),
			Sub: buf[o+1],
			Dst: Reg(le.Uint16(buf[o+2:])),
			A:   Reg(le.Uint16(buf[o+4:])),
			B:   Reg(le.Uint16(buf[o+6:])),
			Imm: int64(le.Uint64(buf[o+8:])),
		}
		nargs := int(buf[o+16])
		o += instrFixed
		if err := need(2*nargs, o); err != nil {
			return err
		}
		if nargs > 0 {
			start := len(c.args)
			for j := 0; j < nargs; j++ {
				c.args = append(c.args, Reg(le.Uint16(buf[o:])))
				o += 2
			}
			in.Args = c.args[start:len(c.args):len(c.args)]
		}
		c.Code = append(c.Code, in)
	}
	return c.Validate()
}
