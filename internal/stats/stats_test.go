package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean([]float64{3, 3, 3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("GeoMean = %v, want 3", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
}

func TestSumAndMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Sum(xs); got != 11 {
		t.Errorf("Sum = %v, want 11", got)
	}
	min, max, err := MinMax(xs)
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v,%v", min, max, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("MinMax(nil) err = %v, want ErrEmpty", err)
	}
}

func TestAbsPctErr(t *testing.T) {
	if got := AbsPctErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("AbsPctErr = %v, want 0.1", got)
	}
	if got := AbsPctErr(0, 0); got != 0 {
		t.Errorf("AbsPctErr(0,0) = %v, want 0", got)
	}
	if got := AbsPctErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("AbsPctErr(1,0) = %v, want +Inf", got)
	}
}

func TestMAPE(t *testing.T) {
	m, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil || math.Abs(m-0.1) > 1e-12 {
		t.Errorf("MAPE = %v,%v, want 0.1", m, err)
	}
	if _, err := MAPE(nil, nil); err != ErrEmpty {
		t.Errorf("MAPE empty err = %v", err)
	}
}

func TestMAPEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MAPE length mismatch did not panic")
		}
	}()
	_, _ = MAPE([]float64{1}, []float64{1, 2})
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v,%v, want %v", c.p, got, err, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v", err)
	}
	// Input must not be mutated.
	if xs[0] != 10 || xs[3] != 40 {
		t.Error("Percentile mutated input")
	}
}

// Property: GeoMean is bounded by Mean for positive inputs (AM-GM).
func TestAMGMQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)/100 + 0.01 // strictly positive
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: Percentile is monotone in p.
func TestPercentileMonotoneQuick(t *testing.T) {
	f := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, _ := Percentile(xs, p1)
		v2, _ := Percentile(xs, p2)
		return v1 <= v2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}
