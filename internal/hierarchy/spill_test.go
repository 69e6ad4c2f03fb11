package hierarchy

import (
	"fmt"
	"testing"

	"morphcache/internal/cache"
	"morphcache/internal/fault"
	"morphcache/internal/mem"
	"morphcache/internal/rng"
	"morphcache/internal/topology"
)

// refSpillTarget is the member loop spillTarget replaced: it asks every
// other member of the core's group, in ascending order, for a free way,
// stopping at the first, and otherwise for the age of its LRU victim.
func refSpillTarget(s *System, l Level, core int, line mem.Line, age uint64) (target int, free bool) {
	g := s.Topology().L2
	if l == L3 {
		g = s.Topology().L3
	}
	target = -1
	for _, m := range g.Members(g.GroupOf(core)) {
		if m == core {
			continue
		}
		sl := s.sliceAt(l, m)
		if sl.FreeWay(line) >= 0 {
			return m, true
		}
		if a, valid := sl.VictimAge(line); valid && a < age {
			target, age = m, a
		}
	}
	return target, false
}

// TestSpillTargetMatchesMemberLoop drives two identical 8-core systems
// with the same accesses, topology changes and way-disable faults. Between
// accesses it asks one system's spillTarget and the other's reference loop
// the same random question and requires the same answer. Both systems must
// end with the same contents and counters, which they would not if the
// questions had left different replacement state behind (SRRIP's victim
// search ages the sets it searches).
func TestSpillTargetMatchesMemberLoop(t *testing.T) {
	const cores = 8
	topos := []topology.Topology{
		topology.AllShared(cores),
		{L2: mustGroups(t, cores, [][]int{{0, 1, 2, 3}, {4, 5}, {6, 7}}), L3: topology.Shared(cores)},
		{L2: mustGroups(t, cores, [][]int{{0, 1}, {2, 3}, {4, 5, 6, 7}}), L3: mustGroups(t, cores, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})},
	}
	for _, pol := range []cache.Policy{cache.LRU, cache.TreePLRU, cache.SRRIP} {
		t.Run(pol.String(), func(t *testing.T) {
			p := ScaledDefault(cores, 32)
			p.Policy = pol
			p.ChargeRemote = true
			var sys [2]*System
			for i := range sys {
				s, err := New(p, topos[0])
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < cores; c++ {
					s.SetCoreASID(c, mem.ASID(c%2+1))
				}
				sys[i] = s
			}
			a, b := sys[0], sys[1]
			r := rng.New(uint64(pol) + 31)
			var now uint64
			questions, free, none := 0, 0, 0
			for step := 0; step < 30000; step++ {
				switch {
				case step%5000 == 4999:
					topo := topos[r.Intn(len(topos))]
					for _, s := range sys {
						if err := s.SetTopology(topo); err != nil {
							t.Fatal(err)
						}
					}
				case step%7000 == 6999:
					ev := fault.Event{Kind: fault.WayDisable, Level: 2 + r.Intn(2), Slice: r.Intn(cores), Ways: 1}
					for _, s := range sys {
						if err := s.ApplyFault(ev); err != nil {
							t.Fatal(err)
						}
					}
				}
				c := r.Intn(cores)
				acc := mem.Access{Line: mem.Line(uint64(c%2)<<22 | uint64(r.Intn(6000))), ASID: a.CoreASID(c)}
				if r.Intn(5) == 0 {
					acc.Kind = mem.Write
				}
				a.Access(c, acc, now)
				b.Access(c, acc, now)
				now += 30
				if r.Intn(3) != 0 {
					continue
				}
				l := Level(r.Intn(2))
				core := r.Intn(cores)
				line := mem.Line(r.Intn(1 << 20))
				local := a.sliceAt(l, core)
				set := local.SetIndex(line)
				age := ^uint64(0)
				if w := r.Intn(local.EffectiveWays()); local.Entry(set, w).Valid {
					age = local.Entry(set, w).LastUse
				}
				got, gotFree := a.spillTarget(l, core, set, line, age)
				want, wantFree := refSpillTarget(b, l, core, line, age)
				if got != want || gotFree != wantFree {
					t.Fatalf("step %d %v core %d set %d age %d: spillTarget (%d, %v), member loop (%d, %v)",
						step, l, core, set, age, got, gotFree, want, wantFree)
				}
				questions++
				switch {
				case gotFree:
					free++
				case got < 0:
					none++
				}
			}
			if free == 0 || none == 0 || free+none == questions {
				t.Fatalf("questions %d: %d free, %d none; want every outcome covered", questions, free, none)
			}
			if *a.Stats() != *b.Stats() {
				t.Fatalf("stats diverged:\n%+v\n%+v", *a.Stats(), *b.Stats())
			}
			for _, l := range []Level{L2, L3} {
				for sl := 0; sl < cores; sl++ {
					if x, y := sliceContents(a.sliceAt(l, sl)), sliceContents(b.sliceAt(l, sl)); x != y {
						t.Fatalf("%v slice %d contents diverged", l, sl)
					}
				}
			}
			if err := a.CheckInclusion(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sliceContents renders every valid entry of a slice with its position.
func sliceContents(s *cache.Slice) string {
	out := ""
	s.ForEachValid(func(set, way int, e cache.Entry) {
		out += fmt.Sprintf("%d/%d:%+v;", set, way, e)
	})
	return out
}
