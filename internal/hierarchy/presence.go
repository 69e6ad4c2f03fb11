package hierarchy

import (
	"fmt"

	"morphcache/internal/mem"
)

// PresenceIndex maps a global line to the bitmask of slices holding it at
// one level. It replaces the former map[mem.GlobalLine]uint32: the access
// path probes it on every reference, so it is a fixed-size open-addressing
// table (linear probing, backward-shift deletion) instead of a Go map — no
// hashing interface, no incremental growth, no allocation after New.
//
// Sizing argument: every key in the index corresponds to at least one valid
// entry in some slice of the level, so the number of distinct keys can never
// exceed the level's total line capacity (cores × lines per slice). The
// table is sized to twice that bound at construction, capping the load
// factor at 0.5 and making probe chains short; it never grows, and Or()
// panics if the bound is ever violated (which would be a bookkeeping bug of
// the same severity as the "present mask inconsistent" panic).
//
// Determinism: the structure is only ever probed by key — nothing iterates
// it on the simulation path — so replacing the map cannot reorder any
// observable event. All default outputs are byte-identical to the map-based
// implementation (enforced by the golden-report CI jobs).
type PresenceIndex struct {
	mask   uint64
	lines  []mem.Line
	asids  []mem.ASID
	owners []uint32 // 0 = empty slot (a present line always has owners)
	// sharers, allocated only by TrackSharers, holds a second mask per key
	// that lives and dies with it: the hierarchy's L2 index records there
	// the cores whose L1 may hold the line.
	sharers []uint32
	n       int // live keys
	cap     int // maximum keys (level line capacity)
}

// NewPresenceIndex builds an index able to hold maxKeys distinct lines.
func NewPresenceIndex(maxKeys int) *PresenceIndex {
	slots := 16
	for slots < 2*maxKeys {
		slots <<= 1
	}
	return &PresenceIndex{
		mask:   uint64(slots - 1),
		lines:  make([]mem.Line, slots),
		asids:  make([]mem.ASID, slots),
		owners: make([]uint32, slots),
		cap:    maxKeys,
	}
}

// TrackSharers gives every key a sharer mask (see Share), zero when the key
// is created. Indexes that never call it keep no mask memory and pay one
// nil check per insertion, clear and deletion shift.
func (p *PresenceIndex) TrackSharers() {
	p.sharers = make([]uint32, len(p.owners))
}

// presenceHash mixes an address-space-qualified line into a table index.
// Fibonacci-style multiplicative hashing with a fold of the high bits keeps
// the low bits (the ones the mask selects) well mixed even for the
// strided, small-range line addresses the workload models generate.
func presenceHash(asid mem.ASID, line mem.Line) uint64 {
	h := uint64(line)*0x9E3779B97F4A7C15 ^ uint64(asid)*0xC2B2AE3D27D4EB4F
	return h ^ h>>32
}

// Get returns the owner mask of the line, or 0 if absent.
func (p *PresenceIndex) Get(gl mem.GlobalLine) uint32 {
	i := presenceHash(gl.ASID, gl.Line) & p.mask
	for {
		o := p.owners[i]
		if o == 0 {
			return 0
		}
		if p.lines[i] == gl.Line && p.asids[i] == gl.ASID {
			return o
		}
		i = (i + 1) & p.mask
	}
}

// Or adds the slice bit to the line's owner mask, inserting the key if new.
func (p *PresenceIndex) Or(gl mem.GlobalLine, bit uint32) {
	i := presenceHash(gl.ASID, gl.Line) & p.mask
	for {
		o := p.owners[i]
		if o == 0 {
			if p.n >= p.cap {
				panic("hierarchy: presence index over line capacity")
			}
			p.lines[i], p.asids[i], p.owners[i] = gl.Line, gl.ASID, bit
			if p.sharers != nil {
				p.sharers[i] = 0
			}
			p.n++
			return
		}
		if p.lines[i] == gl.Line && p.asids[i] == gl.ASID {
			p.owners[i] = o | bit
			return
		}
		i = (i + 1) & p.mask
	}
}

// Clear removes the slice bit from the line's owner mask, deleting the key
// when the mask empties. It returns the owners left and the key's sharer
// mask (0 without TrackSharers), which a deleted key no longer keeps.
// Clearing an absent line is a no-op that returns zeros.
func (p *PresenceIndex) Clear(gl mem.GlobalLine, bit uint32) (owners, sharers uint32) {
	i := presenceHash(gl.ASID, gl.Line) & p.mask
	for {
		o := p.owners[i]
		if o == 0 {
			return 0, 0
		}
		if p.lines[i] == gl.Line && p.asids[i] == gl.ASID {
			if p.sharers != nil {
				sharers = p.sharers[i]
			}
			if o &^= bit; o != 0 {
				p.owners[i] = o
				return o, sharers
			}
			p.deleteAt(i)
			return 0, sharers
		}
		i = (i + 1) & p.mask
	}
}

// Share ORs bits into the sharer mask of a present line; an absent line, or
// an index without TrackSharers, is left unchanged.
func (p *PresenceIndex) Share(gl mem.GlobalLine, bits uint32) {
	if p.sharers == nil {
		return
	}
	i := presenceHash(gl.ASID, gl.Line) & p.mask
	for p.owners[i] != 0 {
		if p.lines[i] == gl.Line && p.asids[i] == gl.ASID {
			p.sharers[i] |= bits
			return
		}
		i = (i + 1) & p.mask
	}
}

// GetSharers returns the owner and sharer masks of the line, or zeros if
// it is absent.
func (p *PresenceIndex) GetSharers(gl mem.GlobalLine) (owners, sharers uint32) {
	i := presenceHash(gl.ASID, gl.Line) & p.mask
	for {
		o := p.owners[i]
		if o == 0 {
			return 0, 0
		}
		if p.lines[i] == gl.Line && p.asids[i] == gl.ASID {
			if p.sharers != nil {
				sharers = p.sharers[i]
			}
			return o, sharers
		}
		i = (i + 1) & p.mask
	}
}

// deleteAt empties slot i and compacts the probe chain behind it
// (backward-shift deletion), so lookups never need tombstones.
func (p *PresenceIndex) deleteAt(i uint64) {
	p.n--
	for {
		p.owners[i] = 0
		j := i
		for {
			j = (j + 1) & p.mask
			if p.owners[j] == 0 {
				return
			}
			h := presenceHash(p.asids[j], p.lines[j]) & p.mask
			// The entry at j may move into the hole at i iff its home h
			// does not lie cyclically within (i, j] — otherwise moving it
			// would put it before its home and break its own chain.
			if (j-h)&p.mask >= (j-i)&p.mask {
				p.lines[i], p.asids[i], p.owners[i] = p.lines[j], p.asids[j], p.owners[j]
				if p.sharers != nil {
					p.sharers[i] = p.sharers[j]
				}
				i = j
				break
			}
		}
	}
}

// Len returns the number of distinct lines present at the level.
func (p *PresenceIndex) Len() int { return p.n }

// Check verifies the structural invariants of the table: the live count
// matches n, every live entry is reachable from its home slot without
// crossing an empty slot, and no key occurs twice. It is the test-time
// generalization of the access path's "present mask inconsistent" panic.
func (p *PresenceIndex) Check() error {
	live := 0
	for i := range p.owners {
		if p.owners[i] == 0 {
			continue
		}
		live++
		gl := mem.GlobalLine{ASID: p.asids[i], Line: p.lines[i]}
		// Probe from the home slot: the first matching key must be slot i
		// (anything else is a duplicate key or a broken chain), and the
		// chain up to i must have no holes.
		j := presenceHash(gl.ASID, gl.Line) & p.mask
		for {
			if p.owners[j] == 0 {
				return fmt.Errorf("hierarchy: presence entry %+v at slot %d unreachable (hole at %d)", gl, i, j)
			}
			if p.lines[j] == gl.Line && p.asids[j] == gl.ASID {
				if j != uint64(i) {
					return fmt.Errorf("hierarchy: presence key %+v duplicated at slots %d and %d", gl, j, i)
				}
				break
			}
			j = (j + 1) & p.mask
		}
	}
	if live != p.n {
		return fmt.Errorf("hierarchy: presence index count %d, live slots %d", p.n, live)
	}
	if p.n > p.cap {
		return fmt.Errorf("hierarchy: presence index holds %d keys over capacity %d", p.n, p.cap)
	}
	return nil
}
