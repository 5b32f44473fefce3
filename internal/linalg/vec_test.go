package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorHelpers(t *testing.T) {
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2")
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("AXPY = %v", y)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch should panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAXPYPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AXPY length mismatch should panic")
		}
	}()
	AXPY(1, []float64{1}, []float64{1, 2})
}

// Property: Norm2 is absolutely homogeneous: ‖αv‖ = |α|·‖v‖.
func TestNorm2Homogeneous(t *testing.T) {
	f := func(a, b, c, alpha float64) bool {
		for _, v := range []float64{a, b, c, alpha} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		v := []float64{a, b, c}
		scaled := []float64{alpha * a, alpha * b, alpha * c}
		want := math.Abs(alpha) * Norm2(v)
		got := Norm2(scaled)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
