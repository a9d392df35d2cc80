package nn

import (
	"unsafe"

	"repro/internal/tensor"
)

// float32 kernel glue. The generic entry kernels in kernels.go, and the
// streaming conv rows (branchStreamOf.convInto), dispatch the float32
// instantiation to the SIMD kernels in internal/nn/simd, whose
// summation order — different from the frozen float64 order, defined
// by the Ref functions there — is a pure function of cols, so the
// bit-identity contract holds per width. The helpers here are the
// reinterpret views and the NaN-preserving ReLU clamp the dispatch
// sites share.

// reluF32 applies the ReLU clamp after an f32 kernel call, with the
// same NaN rule as the generic kernels: v ≤ 0 is false for NaN, so
// NaN propagates. The clamp stays in Go rather than the assembly
// because MAXPS would resolve NaN to the source operand and silently
// flush poisoned sums to zero.
func reluF32(d []float32) {
	for i, v := range d {
		if v <= 0 {
			d[i] = 0
		}
	}
}

// f64s reinterprets a scalar slice as []float64, for callers guarded
// by tensor.Is64[S]: f32s's counterpart for the float64 conv kernel.
func f64s[S tensor.Scalar](s []S) []float64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&s[0])), len(s))
}

// f32s reinterprets a scalar slice as []float32. Callers guard with
// !tensor.Is64[S], so S is float32 and this is the identity view; the
// float64 instantiation compiles but is unreachable. No allocation —
// unsafe.Slice builds a header over the existing backing array.
func f32s[S tensor.Scalar](s []S) []float32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&s[0])), len(s))
}
