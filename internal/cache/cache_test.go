package cache

import (
	"testing"

	"morphcache/internal/mem"
	"morphcache/internal/rng"
)

func small(policy Policy) *Slice {
	// 4 sets x 4 ways of 64-byte lines = 1 KiB.
	return New(Config{SizeBytes: 1024, Ways: 4, Policy: policy})
}

func TestConfigSets(t *testing.T) {
	c := Config{SizeBytes: 256 << 10, Ways: 8}
	if c.Sets() != 512 {
		t.Fatalf("256KB 8-way: %d sets, want 512 (Table 3 L2 slice)", c.Sets())
	}
	c = Config{SizeBytes: 1 << 20, Ways: 16}
	if c.Sets() != 1024 {
		t.Fatalf("1MB 16-way: %d sets, want 1024 (Table 3 L3 slice)", c.Sets())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 4},
		{SizeBytes: 1024, Ways: 0},
		{SizeBytes: 1024, Ways: 5},                      // 16 lines not divisible by 5... actually 16/5 fails divisibility
		{SizeBytes: 3 * 64 * 4, Ways: 4},                // 3 sets: not a power of two
		{SizeBytes: 64 * 12, Ways: 3, Policy: TreePLRU}, // PLRU needs pow2 ways
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) should be invalid", i, c)
		}
	}
	if err := (Config{SizeBytes: 1024, Ways: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || TreePLRU.String() != "tree-plru" {
		t.Fatal("policy strings")
	}
}

func TestBasicHitMiss(t *testing.T) {
	s := small(LRU)
	if w := s.Access(1, 0x100, false); w >= 0 {
		t.Fatal("empty cache should miss")
	}
	s.Insert(1, 0x100, false)
	if w := s.Access(1, 0x100, false); w < 0 {
		t.Fatal("inserted line should hit")
	}
	// Different ASID, same line address: distinct datum.
	if w := s.Access(2, 0x100, false); w >= 0 {
		t.Fatal("other address space must not hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Inserts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	s := small(LRU)
	// Four lines mapping to set 0 (set = line & 3): lines 0,4,8,12.
	for _, l := range []mem.Line{0, 4, 8, 12} {
		s.Insert(1, l, false)
	}
	// Touch line 0 so line 4 becomes LRU.
	s.Access(1, 0, false)
	old := s.Insert(1, 16, false)
	if !old.Valid || old.Line != 4 {
		t.Fatalf("evicted %+v, want line 4", old)
	}
}

func TestVictimAgePrefersInvalid(t *testing.T) {
	s := small(LRU)
	s.Insert(1, 0, false)
	if _, valid := s.VictimAge(4); valid {
		t.Fatal("set with free ways should report an invalid victim")
	}
}

func TestInsertAtAndInvalidate(t *testing.T) {
	s := small(LRU)
	s.InsertAt(2, 3, 1, 0xABC2, true) // line 0xABC2 maps to set 2
	e := s.Entry(2, 3)
	if !e.Valid || !e.Dirty || e.Line != 0xABC2 {
		t.Fatalf("entry %+v", e)
	}
	old := s.Invalidate(1, 0xABC2)
	if !old.Valid || old.Line != 0xABC2 {
		t.Fatalf("invalidate returned %+v", old)
	}
	if s.Lookup(1, 0xABC2) >= 0 {
		t.Fatal("line should be gone")
	}
	if e := s.Invalidate(1, 0xABC2); e.Valid {
		t.Fatal("double invalidate should be a no-op")
	}
}

func TestSetDirty(t *testing.T) {
	s := small(LRU)
	s.Insert(1, 5, false)
	set := s.SetIndex(5)
	w := s.Lookup(1, 5)
	s.SetDirty(set, w)
	if !s.Entry(set, w).Dirty {
		t.Fatal("SetDirty did not stick")
	}
}

func TestFlushAndValidLines(t *testing.T) {
	s := small(LRU)
	for i := mem.Line(0); i < 10; i++ {
		s.Insert(1, i, false)
	}
	if n := s.ValidLines(); n != 10 {
		t.Fatalf("ValidLines = %d, want 10", n)
	}
	if n := s.Flush(); n != 10 {
		t.Fatalf("Flush removed %d, want 10", n)
	}
	if s.ValidLines() != 0 {
		t.Fatal("flush left lines behind")
	}
}

func TestForEachValid(t *testing.T) {
	s := small(LRU)
	want := map[mem.Line]bool{1: true, 2: true, 7: true}
	for l := range want {
		s.Insert(3, l, false)
	}
	got := map[mem.Line]bool{}
	s.ForEachValid(func(set, way int, e Entry) {
		if e.ASID != 3 {
			t.Fatalf("wrong ASID %d", e.ASID)
		}
		got[e.Line] = true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
}

func TestSharedClockOrdersAcrossSlices(t *testing.T) {
	clk := &Clock{}
	a, b := small(LRU), small(LRU)
	a.ShareClock(clk)
	b.ShareClock(clk)
	// Fill set 0 of both slices (lines 0,4,8,12 map to set 0); a's lines are
	// inserted strictly before b's on the shared clock.
	for _, l := range []mem.Line{0, 4, 8, 12} {
		a.Insert(1, l, false)
	}
	for _, l := range []mem.Line{0, 4, 8, 12} {
		b.Insert(1, l, false)
	}
	ageA, okA := a.VictimAge(16)
	ageB, okB := b.VictimAge(16)
	if !okA || !okB {
		t.Fatal("full sets should report valid victims")
	}
	if !(ageA < ageB) {
		// a's LRU entry predates b's LRU entry on the shared clock.
		t.Fatalf("cross-slice ages not comparable: a=%d b=%d", ageA, ageB)
	}
}

func TestTreePLRUVictimNeverMRU(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 8, Ways: 8, Policy: TreePLRU}) // 1 set x 8 ways
	for i := 0; i < 8; i++ {
		s.Insert(1, mem.Line(i*1), false)
	}
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		way := r.Intn(8)
		s.Touch(0, way)
		if v := s.VictimWay(0); v == way {
			t.Fatalf("PLRU victim %d equals just-touched way", v)
		}
	}
}

func TestTreePLRUCyclesThroughWays(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 4, Ways: 4, Policy: TreePLRU})
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		v := s.VictimWay(0)
		seen[v] = true
		s.InsertAt(0, v, 1, mem.Line(i), false)
	}
	if len(seen) != 4 {
		t.Fatalf("PLRU used %d distinct ways, want 4", len(seen))
	}
}

// TestLRUMatchesReferenceModel drives a slice and an exact per-set LRU list
// model with the same random access stream and checks that contents and
// evictions agree at every step.
func TestLRUMatchesReferenceModel(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 32, Ways: 4, Policy: LRU}) // 8 sets x 4 ways
	type key struct {
		asid mem.ASID
		line mem.Line
	}
	model := make(map[int][]key) // set -> MRU-first list
	find := func(set int, k key) int {
		for i, x := range model[set] {
			if x == k {
				return i
			}
		}
		return -1
	}
	r := rng.New(99)
	for step := 0; step < 20000; step++ {
		line := mem.Line(r.Intn(64)) // 64 lines over 8 sets: constant pressure
		asid := mem.ASID(1 + r.Intn(2))
		k := key{asid, line}
		set := s.SetIndex(line)

		modelHit := find(set, k) >= 0
		sliceHit := s.Access(asid, line, false) >= 0
		if modelHit != sliceHit {
			t.Fatalf("step %d: model hit=%v, slice hit=%v for %+v", step, modelHit, sliceHit, k)
		}
		if modelHit {
			// Move to MRU.
			i := find(set, k)
			model[set] = append([]key{k}, append(model[set][:i:i], model[set][i+1:]...)...)
			continue
		}
		old := s.Insert(asid, line, false)
		list := model[set]
		if len(list) == 4 {
			victim := list[len(list)-1]
			if !old.Valid || old.ASID != victim.asid || old.Line != victim.line {
				t.Fatalf("step %d: slice evicted %+v, model evicts %+v", step, old, victim)
			}
			list = list[:len(list)-1]
		} else if old.Valid {
			t.Fatalf("step %d: eviction from non-full set", step)
		}
		model[set] = append([]key{k}, list...)
	}
}

func TestSRRIPBasics(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 4, Ways: 4, Policy: SRRIP}) // 1 set x 4 ways
	if SRRIP.String() != "srrip" {
		t.Fatal("policy string")
	}
	// Fill the set; every line inserted with a long prediction.
	for i := 0; i < 4; i++ {
		s.Insert(1, mem.Line(i), false)
	}
	// Promote line 0 with a hit; it must survive the next two insertions.
	s.Access(1, 0, false)
	s.Insert(1, 10, false)
	s.Insert(1, 11, false)
	if s.Lookup(1, 0) < 0 {
		t.Fatal("hit-promoted line evicted before unpromoted peers")
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// SRRIP's selling point: a one-pass scan cannot displace an actively
	// reused working set the way LRU does.
	run := func(policy Policy) int {
		s := New(Config{SizeBytes: 64 * 8, Ways: 8, Policy: policy}) // 1 set
		scan := 100
		// Rounds of hot reuse interleaved with a scan burst longer than the
		// associativity: LRU's reuse distance exceeds the set, SRRIP's
		// promoted lines out-predict the single-use scans.
		for round := 0; round < 4; round++ {
			for pass := 0; pass < 2; pass++ { // reuse, not just presence
				for i := 0; i < 4; i++ {
					if s.Access(1, mem.Line(i), false) < 0 {
						s.Insert(1, mem.Line(i), false)
					}
				}
			}
			for j := 0; j < 12; j++ {
				if s.Access(1, mem.Line(scan), false) < 0 {
					s.Insert(1, mem.Line(scan), false)
				}
				scan++
			}
		}
		alive := 0
		for i := 0; i < 4; i++ {
			if s.Lookup(1, mem.Line(i)) >= 0 {
				alive++
			}
		}
		return alive
	}
	_ = run
	srrip, lru := run(SRRIP), run(LRU)
	if lru != 0 {
		t.Fatalf("LRU should lose the hot set to the scan, kept %d", lru)
	}
	if srrip < 3 {
		t.Fatalf("SRRIP should keep the hot set through the scan, kept %d", srrip)
	}
}

func TestSRRIPInHierarchyConfig(t *testing.T) {
	if err := (Config{SizeBytes: 1024, Ways: 4, Policy: SRRIP}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOccupancyMaskConsistency cross-checks the per-set occupancy bitmask
// (the O(1) FreeWay/ValidLines fast path) against a linear scan of the
// entries through randomized insert/invalidate/disable/flush traffic.
func TestOccupancyMaskConsistency(t *testing.T) {
	s := New(Config{SizeBytes: 64 * 4 * 8, Ways: 8, Policy: LRU})
	r := rng.New(17)
	checkOcc := func(step int) {
		t.Helper()
		valid := 0
		for set := 0; set < s.Sets(); set++ {
			var want uint64
			for w := 0; w < s.Ways(); w++ {
				if s.Entry(set, w).Valid {
					want |= 1 << uint(w)
					valid++
				}
			}
			if s.occ[set] != want {
				t.Fatalf("step %d: set %d occupancy %#x, entries say %#x", step, set, s.occ[set], want)
			}
			free := -1
			for w := 0; w < s.Ways()-s.DisabledWays(); w++ {
				if !s.Entry(set, w).Valid {
					free = w
					break
				}
			}
			// FreeWay takes a line; any line indexing this set will do.
			if got := s.FreeWay(mem.Line(set)); got != free {
				t.Fatalf("step %d: set %d FreeWay %d, scan says %d", step, set, got, free)
			}
		}
		if got := s.ValidLines(); got != valid {
			t.Fatalf("step %d: ValidLines %d, scan says %d", step, got, valid)
		}
	}
	for step := 0; step < 3000; step++ {
		line := mem.Line(r.Intn(64))
		switch r.Intn(10) {
		case 0:
			s.Invalidate(1, line)
		case 1:
			s.SetDisabledWays(r.Intn(4))
		case 2:
			if step%500 == 0 {
				s.Flush()
			}
		default:
			if s.Access(1, line, r.Intn(2) == 0) < 0 {
				s.Insert(1, line, r.Intn(2) == 0)
			}
		}
		if step%250 == 0 {
			checkOcc(step)
		}
	}
	checkOcc(-1)
}

func TestWays64Limit(t *testing.T) {
	if err := (Config{SizeBytes: 64 * 128 * 2, Ways: 128}).Validate(); err == nil {
		t.Fatal("more than 64 ways must be rejected (one occupancy bit per way)")
	}
	if err := (Config{SizeBytes: 64 * 64 * 2, Ways: 64}).Validate(); err != nil {
		t.Fatalf("64 ways should be valid: %v", err)
	}
}

// scanVictim is the timestamp scan VictimWay memoizes: the lowest-index
// way with the smallest LastUse among the enabled ways.
func scanVictim(s *Slice, set int) int {
	victim := 0
	for w := 1; w < s.EffectiveWays(); w++ {
		if s.Entry(set, w).LastUse < s.Entry(set, victim).LastUse {
			victim = w
		}
	}
	return victim
}

// TestVictimMemoMatchesScan runs random Touch, InsertAt, Invalidate,
// SetDisabledWays, Flush and ShareClock sequences on three slices that
// publish into one pair of spill rows and, after every operation, checks
// the memo and the rows of every set of every slice:
//   - VictimWay on a full set equals a fresh timestamp scan (under
//     tree-PLRU only the disabled-way fallback uses the scan, and SRRIP
//     never does, so those cases are skipped);
//   - the free bit is set iff FreeWay finds a way;
//   - a non-zero age entry of a full set equals VictimAge, and under SRRIP
//     every entry is zero.
func TestVictimMemoMatchesScan(t *testing.T) {
	const slices = 3
	for _, pol := range []Policy{LRU, TreePLRU, SRRIP} {
		r := rng.New(uint64(pol) + 5)
		cfg := Config{SizeBytes: 4 * 8 * mem.LineSize, Ways: 8, Policy: pol}
		sets := cfg.Sets()
		free, age := make([]uint32, sets), make([]uint64, sets*slices)
		clock := &Clock{}
		var ss [slices]*Slice
		for i := range ss {
			ss[i] = New(cfg)
			ss[i].ShareClock(clock)
			ss[i].ShareRows(free, age, i, slices)
		}
		for op := 0; op < 20000; op++ {
			s := ss[r.Intn(slices)]
			set, way := r.Intn(s.Sets()), r.Intn(s.EffectiveWays())
			line := mem.Line(r.Intn(64)*s.Sets() + set)
			switch k := r.Intn(100); {
			case k < 35:
				if s.Entry(set, way).Valid {
					s.Touch(set, way)
				}
			case k < 75:
				if s.Lookup(1, line) < 0 {
					s.InsertAt(set, s.VictimWay(line), 1, line, false)
				}
			case k < 80:
				s.InsertAt(set, way, 1, line, false)
			case k < 95:
				s.InvalidateWay(set, way)
			case k < 98:
				s.SetDisabledWays(r.Intn(4))
			case k < 99:
				s.Flush()
			default:
				s.ShareClock(&Clock{})
			}
			for i, s := range ss {
				for set := 0; set < sets; set++ {
					line := mem.Line(set)
					full := s.FreeWay(line) < 0
					if bit := free[set]&(1<<uint(i)) != 0; bit == full {
						t.Fatalf("%v op %d slice %d set %d: free bit %v, FreeWay %d", pol, op, i, set, bit, s.FreeWay(line))
					}
					a := age[set*slices+i]
					if pol == SRRIP && a != 0 {
						t.Fatalf("SRRIP op %d slice %d set %d: age %d, want 0", op, i, set, a)
					}
					if !full {
						continue
					}
					if pol == LRU || pol == TreePLRU && s.DisabledWays() > 0 {
						if got, want := s.VictimWay(line), scanVictim(s, set); got != want {
							t.Fatalf("%v op %d slice %d set %d: VictimWay %d, scan %d", pol, op, i, set, got, want)
						}
					}
					if a == 0 {
						continue
					}
					if got, _ := s.VictimAge(line); got != a {
						t.Fatalf("%v op %d slice %d set %d: age row %d, VictimAge %d", pol, op, i, set, a, got)
					}
				}
			}
		}
	}
}
