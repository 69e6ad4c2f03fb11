// Package rng provides small, fast, deterministic pseudo-random number
// streams for the simulator.
//
// Everything in this repository must replay bit-identically from a seed:
// workload generation, reconfiguration decisions, and the experiment harness
// all derive their randomness from rng.Stream values seeded from
// (experiment, benchmark, thread, epoch) tuples. The generator is
// splitmix64, which passes through a full 2^64 period, needs no allocation,
// and mixes sequential seeds well — important because we construct many
// streams from small consecutive integers.
package rng

import "math"

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with 0; use New to derive well-separated streams.
type Stream struct {
	state uint64
}

// New returns a stream whose sequence is determined entirely by seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Derive builds a child stream from a parent seed and a sequence of labels.
// It is used to give every (benchmark, thread, epoch, ...) tuple its own
// independent stream without the streams being correlated.
func Derive(seed uint64, labels ...uint64) *Stream {
	s := seed
	for _, l := range labels {
		// Mix in each label with one splitmix64 round so that Derive(s, a, b)
		// and Derive(s, b, a) differ.
		s = mix64(s + 0x9e3779b97f4a7c15 + l)
	}
	return &Stream{state: s}
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Uint32 returns the next 32 pseudo-random bits.
func (s *Stream) Uint32() uint32 {
	return uint32(s.Uint64() >> 32)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free mapping is fine here: the bias
	// for n << 2^64 is far below anything the experiments can resolve.
	hi, _ := mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar Box-Muller method. One value per
// call; the spare is deliberately discarded to keep the stream's consumption
// rate independent of rejection luck... it is not: polar rejection consumes
// a variable number of uniforms, which is fine because each consumer owns
// its stream exclusively.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// Zipf draws from a bounded Zipf-like distribution over [0, n) with skew
// parameter theta in (0, 1). theta near 1 concentrates mass on low indices;
// theta near 0 approaches uniform. It uses the standard inverse-CDF
// approximation for Zipf(θ) popularized by the YCSB generator, which is
// accurate enough for locality modeling and allocation-free.
func (s *Stream) Zipf(n int, theta float64) int {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if theta <= 0 {
		return s.Intn(n)
	}
	// Direct inverse-power transform: rank ~ u^(1/(1-theta)) stretched over
	// [0, n). This yields a heavy head at index 0 and a long tail, which is
	// what a hot-set reuse pattern needs.
	u := s.Float64()
	var r float64
	switch e := 1 / (1 - theta); {
	case e == 2:
		// theta 0.5, the workload model's hot-set skew: math.Pow(u, 2)
		// equals u*u bit for bit on [0, 1) (see TestPowSquareExact), at a
		// fraction of the cost.
		r = u * u
	case e == 4.0/3:
		// theta 0.25, the warm-set skew.
		return warmIndex(u, n, e)
	case e > 1 && e <= 1.5:
		// theta up to 1/3: for these exponents math.Pow(u, e) computes
		// exp((e-1)·log u) and scales it by the mantissa and exponent of u,
		// a rescaling that is exact for normal results, so the product with
		// u is the same float64 (see TestPowFractionalExact) without Pow's
		// special-case tests and Frexp/Ldexp.
		r = math.Exp((e-1)*math.Log(u)) * u
	default:
		r = math.Pow(u, e)
	}
	return scale(r, n)
}

// scale maps a rank in [0, 1] onto [0, n).
func scale(r float64, n int) int {
	return min(int(r*float64(n)), n-1)
}

// warmIndex is Zipf's index for theta 0.25, whose exponent e is the
// float64 nearest 4/3. The exact index is that of the rank
// math.Exp((e-1)*math.Log(u))*u, the exp-log form of math.Pow(u, e) Zipf
// uses for theta up to 1/3. Only the index is observed, so warmIndex
// floors x = Cbrt(u)*u*n instead whenever x lies more than
// d = n·2^-40 + 2^-30 from an integer: Cbrt, Exp and Log are each within a
// few ulps and e-1 is within 2^-53 of 1/3, so x is within about 1e-14·n
// of the exact rank times n, far inside d, and both floor to the same
// integer. Nearer an integer the exact rank decides; from n = 2^39 on d
// reaches 1/2 and it always does (DESIGN.md §11, TestZipfCbrtIndexExact).
func warmIndex(u float64, n int, e float64) int {
	if n < 1<<39 {
		x := math.Cbrt(u) * u * float64(n)
		i := int(x)
		d := float64(n)*0x1p-40 + 0x1p-30
		if f := x - float64(i); f > d && f < 1-d {
			return min(i, n-1)
		}
	}
	return scale(math.Exp((e-1)*math.Log(u))*u, n)
}
