package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestDigestMatchesPerValueWrites holds Digest to the hash the kernels
// computed before it, one fnv Write of each value's little-endian
// bytes, across buffer boundaries: a leading byte misaligns every
// later value against the 4 KiB buffer, and each slice spans several
// buffers.
func TestDigestMatchesPerValueWrites(t *testing.T) {
	const n = 3000
	i32 := make([]int32, n)
	f64 := make([]float64, n)
	c128 := make([]complex128, n)
	for i := range i32 {
		i32[i] = int32(i*2654435761) ^ -1
		f64[i] = math.Sqrt(float64(i)) - 20
		c128[i] = complex(f64[i], -f64[n-1-i])
	}
	f64[7] = math.Copysign(0, -1)

	h := fnv.New64a()
	h.Write([]byte{0xFF})
	for _, v := range i32 {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	word := func(v float64) {
		var b [8]byte
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range f64 {
		word(v)
	}
	for _, v := range c128 {
		word(real(v))
		word(imag(v))
	}
	want := fmt.Sprintf("%016x", h.Sum64())

	d := NewDigest()
	d.Byte(0xFF)
	d.Int32s(i32)
	d.Float64s(f64)
	d.Complex128s(c128)
	if got := d.String(); got != want {
		t.Fatalf("Digest = %s, per-value writes = %s", got, want)
	}
	if got, want := NewDigest().String(), fmt.Sprintf("%016x", fnv.New64a().Sum64()); got != want {
		t.Fatalf("empty Digest = %s, want %s", got, want)
	}
}
