package bench

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestSideMedianAndIQR(t *testing.T) {
	s := newSide([]float64{5, 1, 4, 2, 3})
	if s.MedianSec != 3 || s.IQRSec != 2 {
		t.Fatalf("median %v iqr %v, want 3 and 2", s.MedianSec, s.IQRSec)
	}
	if want := []float64{5, 1, 4, 2, 3}; !reflect.DeepEqual(s.SamplesSec, want) {
		t.Fatalf("samples %v, want call order %v", s.SamplesSec, want)
	}
	for _, c := range []struct {
		data []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 1, 4},
	} {
		if got := Quantile(c.data, c.q); got != c.want {
			t.Errorf("Quantile(%v, %v) = %v, want %v", c.data, c.q, got, c.want)
		}
	}
}

func TestABAlternatesOrder(t *testing.T) {
	var seq strings.Builder
	call := func(name string) Func {
		return func() (string, error) { seq.WriteString(name); return "same", nil }
	}
	res, err := AB(call("a"), call("b"))
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for i := 0; i < Pairs; i++ {
		if i%2 == 0 {
			want += "ab"
		} else {
			want += "ba"
		}
	}
	if seq.String() != want {
		t.Fatalf("call order %q, want %q", seq.String(), want)
	}
	if len(res.A.SamplesSec) != Pairs || len(res.B.SamplesSec) != Pairs || res.Pairs != Pairs {
		t.Fatalf("got %d/%d samples over %d pairs, want %d each", len(res.A.SamplesSec), len(res.B.SamplesSec), res.Pairs, Pairs)
	}
	if res.Digest != "same" {
		t.Fatalf("digest %q, want %q", res.Digest, "same")
	}
}

func TestABFailsOnAnyDigestMismatch(t *testing.T) {
	for bad := 0; bad < 2*Pairs; bad++ {
		calls := 0
		f := func() (string, error) {
			calls++
			if calls-1 == bad {
				return "other", nil
			}
			return "same", nil
		}
		if _, err := AB(f, f); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("mismatch at call %d: err %v, want a digest error", bad+1, err)
		}
	}
	boom := errors.New("boom")
	if _, err := AB(func() (string, error) { return "", nil }, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Errorf("failing call: err %v, want %v", err, boom)
	}
}

func TestHostPopulated(t *testing.T) {
	h := Host()
	if h.Cores < 1 || h.GOMAXPROCS < 1 || !strings.HasPrefix(h.GoVersion, "go") {
		t.Fatalf("host %+v has unpopulated fields", h)
	}
}

// sideAt builds a five-sample side whose median is m and whose IQR/median is
// noise: quartiles at m(1 ± noise/2), extremes at m(1 ± noise).
func sideAt(m, noise float64) Side {
	return newSide([]float64{m * (1 + noise), m * (1 - noise/2), m, m * (1 - noise), m * (1 + noise/2)})
}

// TestRatioGates judges synthetic sides with the figures read on an
// unchanged tree, which must pass, and with planted 30% shifts, which must
// fail wherever they exceed the reference side's noise.
func TestRatioGates(t *testing.T) {
	if n := sideAt(2, 0.145).Noise(); n < 0.145-1e-12 || n > 0.145+1e-12 {
		t.Fatalf("sideAt noise %v, want 0.145", n)
	}
	for _, c := range []struct {
		name     string
		overhead float64 // obs-on median over obs-off median, - 1
		noise    float64 // the obs-off side's IQR/median
		pass     bool
	}{
		{"unchanged, -17.7% at 24.3% noise", -0.177, 0.243, true},
		{"unchanged, +9.3% at 9.7% noise", 0.093, 0.097, true},
		{"unchanged, +0.2% at 14.5% noise", 0.002, 0.145, true},
		{"at the bound, no noise", 0.10, 0, true},
		{"planted +30% at 9.7% noise", 0.30, 0.097, false},
		{"planted +30% at 14.5% noise", 0.30, 0.145, false},
		// 1.30 <= 1.10 * 1.243: a shift inside the reference's own spread
		// cannot be told from noise.
		{"planted +30% at 24.3% noise", 0.30, 0.243, true},
	} {
		off := sideAt(0.83, c.noise)
		on := sideAt(0.83*(1+c.overhead), 0.05)
		err := AtMost("enabled overhead", on.MedianSec/off.MedianSec, 1.10, off)
		if (err == nil) != c.pass {
			t.Errorf("%s: err %v, want pass %v", c.name, err, c.pass)
		}
	}
	for _, c := range []struct {
		name  string
		ratio float64 // cold-miss median over hit p50
		noise float64 // the cold-miss side's IQR/median
		pass  bool
	}{
		{"unchanged, 244x", 244, 0.243, true},
		{"unchanged, 325x", 325, 0.097, true},
		{"at the bound, no noise", 100, 0, true},
		{"planted 30% below the bound at 9.7% noise", 100 / 1.3, 0.097, false},
		{"planted 30% below the bound at 14.5% noise", 100 / 1.3, 0.145, false},
		{"planted 5 ms hit path", 0.041 / 0.005, 0.43, false},
	} {
		cold := sideAt(0.041, c.noise)
		if err := AtLeast("cold/hit", c.ratio, 100, cold); (err == nil) != c.pass {
			t.Errorf("%s: err %v, want pass %v", c.name, err, c.pass)
		}
	}
	var zero Side
	if AtMost("nan", 1, 1.10, zero) == nil || AtLeast("nan", 1e9, 100, zero) == nil {
		t.Error("a side with no spread measured (NaN noise) passed a gate")
	}
}
