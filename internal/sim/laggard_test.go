package sim

import (
	"testing"

	"morphcache/internal/rng"
)

// scanLaggard is the linear scan the tournament tree replaces: the core
// with the smallest clock before end, the lowest index among equals, or -1.
func scanLaggard(clock []uint64, end uint64) int {
	core := -1
	var minClock uint64
	for c := range clock {
		if clock[c] < end && (core < 0 || clock[c] < minClock) {
			core, minClock = c, clock[c]
		}
	}
	return core
}

// TestLaggardsMatchScan drives the tree the way Engine.Run does — reset at
// an epoch end, then advance the picked core and update — on random clock
// vectors drawn from a narrow range, so ties and cores at or past the end
// are common, and checks every pick against the linear scan. It also
// updates cores the engine would not pick, which the tree must absorb as
// well.
func TestLaggardsMatchScan(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{1, 3, 16} {
		for trial := 0; trial < 300; trial++ {
			clock := make([]uint64, n)
			end := uint64(20 + r.Intn(20))
			for c := range clock {
				clock[c] = uint64(r.Intn(int(end) + 8))
			}
			lag := newLaggards(clock)
			lag.reset(end)
			for step := 0; ; step++ {
				got, want := lag.next(), scanLaggard(clock, end)
				if got != want {
					t.Fatalf("n=%d trial %d step %d: clocks %v end %d: tree picks %d, scan %d", n, trial, step, clock, end, got, want)
				}
				if got < 0 {
					break
				}
				c := got
				if r.Intn(4) == 0 {
					c = r.Intn(n)
				}
				clock[c] += uint64(r.Intn(4))
				lag.update(c)
			}
		}
	}
}

// TestLaggardsEdgeVectors pins the cases the random walk reaches only by
// chance: all clocks equal, all finished, exactly at the end, and an
// epoch end that moves forward over finished cores.
func TestLaggardsEdgeVectors(t *testing.T) {
	cases := []struct {
		clock []uint64
		end   uint64
	}{
		{[]uint64{5}, 10},
		{[]uint64{10}, 10},
		{[]uint64{7, 7, 7}, 10},
		{[]uint64{10, 11, 12}, 10},
		{[]uint64{10, 9, 9}, 10},
		{[]uint64{3, 10, 3}, 10},
		{make([]uint64, 16), 1},
		{[]uint64{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2},
		{[]uint64{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 1},
	}
	for _, tc := range cases {
		lag := newLaggards(tc.clock)
		for _, end := range []uint64{tc.end, tc.end + 5} {
			lag.reset(end)
			if got, want := lag.next(), scanLaggard(tc.clock, end); got != want {
				t.Errorf("clocks %v end %d: tree picks %d, scan %d", tc.clock, end, got, want)
			}
		}
	}
}
