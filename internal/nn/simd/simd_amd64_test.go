//go:build !purego

package simd

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvRowWithoutAVX forces the path an amd64 host without AVX
// takes — the conv row kernels tail-call their references from the
// assembly — and checks it against the AVX kernels bit for bit.
func TestConvRowWithoutAVX(t *testing.T) {
	if !useAVX {
		t.Skip("host has no AVX: every run already takes the reference path")
	}
	rng := rand.New(rand.NewSource(5))
	const filters, cols = 29, 15
	x32, wT32, b32 := make([]float32, cols), make([]float32, cols*filters), make([]float32, filters)
	x64, wT64, b64 := make([]float64, cols), make([]float64, cols*filters), make([]float64, filters)
	for i := range wT64 {
		wT64[i] = rng.NormFloat64()
		wT32[i] = float32(wT64[i])
	}
	for i := range x64 {
		x64[i] = rng.NormFloat64()
		x32[i] = float32(x64[i])
	}
	for i := range b64 {
		b64[i] = rng.NormFloat64()
		b32[i] = float32(b64[i])
	}
	for _, fold := range []bool{false, true} {
		avx32, avx64 := make([]float32, filters), make([]float64, filters)
		ConvRowF32(avx32, x32, wT32, b32, filters, cols, fold)
		ConvRowF64(avx64, x64, wT64, b64, filters, cols, fold)
		useAVX = false
		ref32, ref64 := make([]float32, filters), make([]float64, filters)
		ConvRowF32(ref32, x32, wT32, b32, filters, cols, fold)
		ConvRowF64(ref64, x64, wT64, b64, filters, cols, fold)
		useAVX = true
		for f := 0; f < filters; f++ {
			if math.Float32bits(avx32[f]) != math.Float32bits(ref32[f]) ||
				math.Float64bits(avx64[f]) != math.Float64bits(ref64[f]) {
				t.Fatalf("fold=%v filter %d: AVX (%v, %v), without AVX (%v, %v)",
					fold, f, avx32[f], avx64[f], ref32[f], ref64[f])
			}
		}
	}
}

// TestHeadWithoutAVX forces the path an amd64 host without AVX takes
// through the head kernels — a tail call of the references — and
// checks it against the AVX bodies bit for bit, sparse and dense.
func TestHeadWithoutAVX(t *testing.T) {
	if !useAVX {
		t.Skip("host has no AVX: every run already takes the reference path")
	}
	rng := rand.New(rand.NewSource(6))
	const rows, cols = 100, 100
	x32, wT32, b32 := make([]float32, cols), make([]float32, cols*rows), make([]float32, rows)
	x64, wT64, b64 := make([]float64, cols), make([]float64, cols*rows), make([]float64, rows)
	for i := range wT64 {
		wT64[i] = rng.NormFloat64()
		wT32[i] = float32(wT64[i])
	}
	for o := range b64 {
		b64[o] = rng.NormFloat64()
		b32[o] = float32(b64[o])
	}
	for _, zeros := range []int{0, cols / 2} {
		for i := range x64 {
			x64[i] = 0
			if i >= zeros {
				x64[i] = rng.NormFloat64()
			}
			x32[i] = float32(x64[i])
		}
		avx32, avx64 := make([]float32, rows), make([]float64, rows)
		HeadF32(avx32, x32, wT32, b32, rows, cols, true)
		HeadF64(avx64, x64, wT64, b64, rows, cols, true)
		useAVX = false
		ref32, ref64 := make([]float32, rows), make([]float64, rows)
		HeadF32(ref32, x32, wT32, b32, rows, cols, true)
		HeadF64(ref64, x64, wT64, b64, rows, cols, true)
		useAVX = true
		for o := 0; o < rows; o++ {
			if math.Float32bits(avx32[o]) != math.Float32bits(ref32[o]) ||
				math.Float64bits(avx64[o]) != math.Float64bits(ref64[o]) {
				t.Fatalf("zeros=%d output %d: AVX (%v, %v), without AVX (%v, %v)",
					zeros, o, avx32[o], avx64[o], ref32[o], ref64[o])
			}
		}
	}
}
