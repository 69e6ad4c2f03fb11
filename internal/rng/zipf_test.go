package rng

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
)

// TestPowSquareExact backs Zipf's u*u shortcut for theta 0.5: on every
// value Float64 can return, math.Pow(u, 2) and u*u are the same float64.
func TestPowSquareExact(t *testing.T) {
	edges := []float64{0, 0x1p-53, 1 - 0x1p-53}
	for _, u := range edges {
		if p, q := math.Pow(u, 2), u*u; p != q {
			t.Fatalf("Pow(%g, 2) = %g, u*u = %g", u, p, q)
		}
	}
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	s := New(2024)
	for i := 0; i < draws; i++ {
		u := s.Float64()
		if p, q := math.Pow(u, 2), u*u; p != q {
			t.Fatalf("draw %d: Pow(%v, 2) = %v, u*u = %v", i, u, p, q)
		}
	}
}

// TestPowFractionalExact backs Zipf's exp-log form for exponents in
// (1, 1.5]: on the edge values and on every draw, math.Pow(u, e) and
// math.Exp((e-1)*math.Log(u))*u are the same float64.
func TestPowFractionalExact(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	for _, theta := range []float64{0.1, 0.25, 0.3} {
		e := 1 / (1 - theta)
		check := func(i int, u float64) {
			if p, q := math.Pow(u, e), math.Exp((e-1)*math.Log(u))*u; p != q {
				t.Fatalf("theta %v draw %d: Pow(%v, %v) = %v, exp-log = %v", theta, i, u, e, p, q)
			}
		}
		for _, u := range []float64{0, 0x1p-53, 1 - 0x1p-53} {
			check(-1, u)
		}
		s := New(2025)
		for i := 0; i < draws; i++ {
			check(i, s.Float64())
		}
	}
}

// zipfPinN is the range of the pinned draws. Scaling by 2^62 is exact and
// keeps every mantissa bit of the rank above 2^-10 in the index, so a
// one-ulp change in the computed rank moves the draw.
const zipfPinN = 1 << 62

// TestZipfPinned compares the first 1000 Zipf draws of a fixed seed, for
// the workload model's two skews (hot 0.5, warm 0.25), with values recorded
// from the math.Pow-only implementation.
func TestZipfPinned(t *testing.T) {
	for _, theta := range []float64{0.5, 0.25} {
		want := readPinned(t, fmt.Sprintf("testdata/zipf-theta%.2f.txt", theta))
		s := New(42)
		for i, w := range want {
			if got := s.Zipf(zipfPinN, theta); got != w {
				t.Fatalf("theta %v draw %d: got %d, want %d", theta, i, got, w)
			}
		}
	}
}

func readPinned(t *testing.T, path string) []int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		v, err := strconv.Atoi(sc.Text())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("%s: %d values, want 1000", path, len(out))
	}
	return out
}
