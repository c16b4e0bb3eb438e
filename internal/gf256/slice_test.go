package gf256

import (
	"bytes"
	"testing"
)

// The slice kernels claim bit-identity with the scalar field ops. The
// field has only 256 elements, so that claim is checked exhaustively:
// every (c, byte) pair for the multiply kernels, and every alignment ×
// length combination in 0..64 for the word-batched XOR path.

// patternBytes fills a deterministic, alignment-revealing byte pattern
// without pulling in an RNG: a full residue sweep xored with the index.
func patternBytes(n int, salt byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*151+13) ^ salt
	}
	return out
}

func TestMulSliceAddExhaustive(t *testing.T) {
	// One slice holding every field element, multiplied by every constant:
	// all 65 536 (c, a) pairs hit the kernel path.
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 256)
	want := make([]byte, 256)
	for c := 0; c < 256; c++ {
		copy(dst, patternBytes(256, byte(c)))
		copy(want, dst)
		for i := range want {
			want[i] ^= Mul(byte(c), src[i])
		}
		MulSliceAdd(dst, src, byte(c))
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulSliceAdd c=%d diverges from scalar Mul", c)
		}
	}
}

func TestMulSliceExhaustive(t *testing.T) {
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 256)
	want := make([]byte, 256)
	for c := 0; c < 256; c++ {
		copy(dst, patternBytes(256, byte(c)))
		for i := range want {
			want[i] = Mul(byte(c), src[i])
		}
		MulSlice(dst, src, byte(c))
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulSlice c=%d diverges from scalar Mul", c)
		}
	}
}

// TestAddSliceAlignments drives the 8-byte word batching across every
// (offset, length) pair with offset in 0..7 and length in 0..64, so the
// word loop, the byte tail, and their boundary are all exercised at every
// alignment of dst and src relative to the word size.
func TestAddSliceAlignments(t *testing.T) {
	const maxLen = 64
	backingDst := patternBytes(maxLen+16, 0xA5)
	backingSrc := patternBytes(maxLen+16, 0x3C)
	for dOff := 0; dOff < 8; dOff++ {
		for sOff := 0; sOff < 8; sOff++ {
			for n := 0; n <= maxLen; n++ {
				dst := append([]byte(nil), backingDst[dOff:dOff+n]...)
				src := backingSrc[sOff : sOff+n]
				want := make([]byte, n)
				for i := range want {
					want[i] = dst[i] ^ src[i]
				}
				AddSlice(dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("AddSlice diverges at dOff=%d sOff=%d n=%d", dOff, sOff, n)
				}
			}
		}
	}
}

// TestMulSliceAddLengths covers the scalar row-lookup path (and the c=1
// word path) over all lengths 0..64 for a spread of constants.
func TestMulSliceAddLengths(t *testing.T) {
	for _, c := range []byte{0, 1, 2, 3, 29, 127, 128, 255} {
		for n := 0; n <= 64; n++ {
			src := patternBytes(n, c)
			dst := patternBytes(n, ^c)
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ Mul(c, src[i])
			}
			MulSliceAdd(dst, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulSliceAdd diverges at c=%d n=%d", c, n)
			}
		}
	}
}

func TestSliceKernelsInPlaceAliasing(t *testing.T) {
	// dst == src is part of the documented contract.
	for _, c := range []byte{0, 1, 7, 255} {
		s := patternBytes(33, c)
		want := make([]byte, len(s))
		for i := range want {
			want[i] = s[i] ^ Mul(c, s[i])
		}
		MulSliceAdd(s, s, c)
		if !bytes.Equal(s, want) {
			t.Fatalf("in-place MulSliceAdd diverges at c=%d", c)
		}

		s = patternBytes(33, c)
		for i := range want {
			want[i] = Mul(c, s[i])
		}
		MulSlice(s, s, c)
		if !bytes.Equal(s, want) {
			t.Fatalf("in-place MulSlice diverges at c=%d", c)
		}
	}
	s := patternBytes(40, 9)
	AddSlice(s, s)
	for i, v := range s {
		if v != 0 {
			t.Fatalf("in-place AddSlice should zero; byte %d = %d", i, v)
		}
	}
}

func TestSliceKernelsLengthMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"AddSlice", func() { AddSlice(make([]byte, 3), make([]byte, 4)) }},
		{"MulSliceAdd", func() { MulSliceAdd(make([]byte, 3), make([]byte, 4), 5) }},
		{"MulSlice", func() { MulSlice(make([]byte, 3), make([]byte, 4), 5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on length mismatch", tc.name)
				}
			}()
			tc.f()
		})
	}
}

// TestEvalIntoMatchesHorner: the columnar power-sum accumulation must
// agree with per-byte Horner evaluation for every evaluation point.
func TestEvalIntoMatchesHorner(t *testing.T) {
	const width, degree = 19, 5
	rows := make([][]byte, degree)
	for j := range rows {
		rows[j] = patternBytes(width, byte(3*j+1))
	}
	dst := make([]byte, width)
	for x := 0; x < 256; x++ {
		EvalInto(dst, rows, byte(x))
		for b := 0; b < width; b++ {
			p := make(Polynomial, degree)
			for j := range rows {
				p[j] = rows[j][b]
			}
			if want := p.Eval(byte(x)); dst[b] != want {
				t.Fatalf("EvalInto(x=%d) byte %d = %d, want Horner %d", x, b, dst[b], want)
			}
		}
	}
	EvalInto(dst, nil, 7)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("EvalInto with no rows should zero dst; byte %d = %d", i, v)
		}
	}
}

// TestLagrangeCoeffsMatchInterpolate: Σ ys[i]·L_i(x) must equal the
// scalar Interpolate for every evaluation point, including the nodes
// themselves (where the basis collapses to a unit vector).
func TestLagrangeCoeffsMatchInterpolate(t *testing.T) {
	xs := []byte{1, 2, 3, 7, 90, 255}
	ys := patternBytes(len(xs), 0x1F)
	coeffs := make([]byte, len(xs))
	for x := 0; x < 256; x++ {
		if err := LagrangeCoeffs(xs, byte(x), coeffs); err != nil {
			t.Fatalf("LagrangeCoeffs(x=%d): %v", x, err)
		}
		var got byte
		for i := range xs {
			got ^= Mul(ys[i], coeffs[i])
		}
		want, err := Interpolate(xs, ys, byte(x))
		if err != nil {
			t.Fatalf("Interpolate(x=%d): %v", x, err)
		}
		if got != want {
			t.Fatalf("coefficient reconstruction at x=%d: got %d, want %d", x, got, want)
		}
	}
	// At a node the basis must be exactly the unit vector for that node.
	if err := LagrangeCoeffs(xs, xs[2], coeffs); err != nil {
		t.Fatal(err)
	}
	for i, c := range coeffs {
		want := byte(0)
		if i == 2 {
			want = 1
		}
		if c != want {
			t.Fatalf("basis at node: coeffs[%d] = %d, want %d", i, c, want)
		}
	}
}

func TestLagrangeCoeffsErrors(t *testing.T) {
	if err := LagrangeCoeffs([]byte{1, 2, 1}, 0, make([]byte, 3)); err == nil {
		t.Fatal("duplicate xs not rejected")
	}
	if err := LagrangeCoeffs([]byte{1, 2}, 0, make([]byte, 3)); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if err := LagrangeCoeffs(nil, 0, nil); err == nil {
		t.Fatal("empty point set not rejected")
	}
}

// The kernels and the reworked Interpolate promise zero allocations on
// the success path — the property the codec layer's alloc gates build on.
func TestSliceKernelsNoAllocs(t *testing.T) {
	dst := patternBytes(1024, 1)
	src := patternBytes(1024, 2)
	xs := []byte{1, 2, 3, 4, 5}
	ys := []byte{9, 8, 7, 6, 5}
	coeffs := make([]byte, 5)
	rows := [][]byte{patternBytes(64, 1), patternBytes(64, 2), patternBytes(64, 3)}
	rowDst := make([]byte, 64)
	for name, f := range map[string]func(){
		"AddSlice":       func() { AddSlice(dst, src) },
		"MulSliceAdd":    func() { MulSliceAdd(dst, src, 29) },
		"MulSlice":       func() { MulSlice(dst, src, 29) },
		"EvalInto":       func() { EvalInto(rowDst, rows, 17) },
		"LagrangeCoeffs": func() { _ = LagrangeCoeffs(xs, 0, coeffs) },
		"Interpolate":    func() { _, _ = Interpolate(xs, ys, 0) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
