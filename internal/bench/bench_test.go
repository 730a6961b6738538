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
