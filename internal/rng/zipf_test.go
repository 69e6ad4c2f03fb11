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

// TestZipfCbrtIndexExact backs warmIndex, Zipf's index for theta 0.25:
// it must equal the index of the exp-log rank (the case
// TestPowFractionalExact backs) on every draw. Random draws go through
// Zipf for every range n; adversarial ones sit a few ulps either side of
// the rank boundaries (k/n)^(3/4), where the cbrt estimate and the exact
// rank can floor to different indices and the fallback has to decide.
func TestZipfCbrtIndexExact(t *testing.T) {
	theta := 0.25
	e := 1 / (1 - theta)
	ns := []int{1, 2, 3, 7, 1000, 4096, 16384, 1 << 20, 1 << 36, 1 << 40, 1 << 52}
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	s := New(2026)
	for i := 0; i < draws; i++ {
		next := *s
		u := s.Float64()
		r := math.Exp((e-1)*math.Log(u)) * u
		for _, n := range ns {
			z := next
			if got, want := z.Zipf(n, theta), scale(r, n); got != want {
				t.Fatalf("draw %d, n %d: Zipf = %d, exact %d (u = %v)", i, n, got, want, u)
			}
		}
	}

	// Adversarial draws. split counts those whose cbrt estimate floors
	// away from the exact index, near the draws the fallback decides: the
	// test has teeth only if some exist.
	split, near := 0, 0
	pick := New(7)
	for _, n := range ns {
		ks := []int{n}
		for k := 1; k < n && k <= 256; k++ {
			ks = append(ks, k)
		}
		for j := 0; j < 256 && n > 256; j++ {
			ks = append(ks, 1+pick.Intn(n-1))
		}
		for _, k := range ks {
			u0 := math.Pow(float64(k)/float64(n), 0.75)
			for _, dir := range []float64{0, 1} {
				u := u0
				for step := 0; step < 6; step++ {
					if u < 1 {
						want := scale(math.Exp((e-1)*math.Log(u))*u, n)
						if got := warmIndex(u, n, e); got != want {
							t.Fatalf("n %d, k %d, u %v: warmIndex = %d, exact %d", n, k, u, got, want)
						}
						x := math.Cbrt(u) * u * float64(n)
						if min(int(x), n-1) != want {
							split++
						}
						if f := x - math.Floor(x); f <= float64(n)*0x1p-40+0x1p-30 || f >= 1-float64(n)*0x1p-40-0x1p-30 {
							near++
						}
					}
					u = math.Nextafter(u, dir)
				}
			}
		}
	}
	if split == 0 || near == 0 {
		t.Fatalf("adversarial draws: %d split the cbrt floor from the exact index, %d near an integer; want both > 0", split, near)
	}
	t.Logf("adversarial draws: %d split, %d near an integer", split, near)
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
