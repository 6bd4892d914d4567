package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
)

// Digest is the verification digest the kernels report: an FNV-64a of
// their output values, each as its little-endian bytes, in order.
// Values are staged in a 4 KiB buffer and hashed a buffer at a time,
// so the hash is called once per buffer, not once per value.
type Digest struct {
	h   hash.Hash64
	n   int
	buf [4096]byte
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: fnv.New64a()} }

// free returns the buffer's free space, hashing what the buffer holds
// first if fewer than k bytes are free.
func (d *Digest) free(k int) []byte {
	if d.n+k > len(d.buf) {
		d.h.Write(d.buf[:d.n])
		d.n = 0
	}
	return d.buf[d.n:]
}

// Byte adds one byte.
func (d *Digest) Byte(v byte) {
	d.free(1)[0] = v
	d.n++
}

// Int32s adds each value as 4 bytes.
func (d *Digest) Int32s(vs []int32) {
	for len(vs) > 0 {
		b := d.free(4)
		n := min(len(vs), len(b)/4)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		d.n += 4 * n
		vs = vs[n:]
	}
}

// Float64s adds the IEEE 754 bits of each value as 8 bytes.
func (d *Digest) Float64s(vs []float64) {
	for len(vs) > 0 {
		b := d.free(8)
		n := min(len(vs), len(b)/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		d.n += 8 * n
		vs = vs[n:]
	}
}

// Complex128s adds the real then the imaginary part of each value, as
// Float64s does.
func (d *Digest) Complex128s(vs []complex128) {
	for len(vs) > 0 {
		b := d.free(16)
		n := min(len(vs), len(b)/16)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[16*i:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[16*i+8:], math.Float64bits(imag(v)))
		}
		d.n += 16 * n
		vs = vs[n:]
	}
}

// String returns the hash of everything added, as 16 hex digits.
func (d *Digest) String() string {
	d.h.Write(d.buf[:d.n])
	d.n = 0
	return fmt.Sprintf("%016x", d.h.Sum64())
}
