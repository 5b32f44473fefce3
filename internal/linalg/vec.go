// Package linalg is the numerical core of the circuit-level solver:
// preconditioned conjugate gradients over an Operator interface, which the
// crossbar's matrix-free stencil implements, for the symmetric
// positive-definite conductance matrices that modified nodal analysis of a
// crossbar produces; a spectral condition estimate for solver diagnostics;
// and the exact operation-count cost model every kernel charges.
//
// Only the standard library is used. Generic matrix storage (CSR, dense
// LU) lives in the test-support package linalgtest, as the oracle the
// structured operators are checked against.
package linalg

import "math"

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}
