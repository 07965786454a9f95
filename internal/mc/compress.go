package mc

import "psketch/internal/state"

// This file implements SPIN-style state compression for the visited
// set, selected by Options.Compress.
//
// "collapse" (SPIN's COLLAPSE) interns each state component — the
// shared cells as one fragment, each thread's local block plus its
// program counter as another — into per-component tables, and keys the
// visited set on the small tuple of component ids. Repeated components
// (threads parked at the same point, a shared heap most interleavings
// do not touch) are stored once, so memory scales with the number of
// distinct components instead of distinct full vectors. Unlike the
// default fingerprint table this is exact: it compares full state
// contents, so it doubles as a hash-collision cross-check for the
// default mode in tests.

// colEntry carries the same per-state bookkeeping as fpTable.
type colEntry struct {
	done uint64
	pm   uint64
}

// collapseTab is the collapse-compression visited set.
type collapseTab struct {
	sharedEnd        int
	blockLo, blockHi []int

	shared  map[string]uint32   // shared-fragment bytes -> id
	blocks  []map[string]uint32 // per thread: block bytes -> id
	entries map[string]*colEntry

	interned uint64 // bytes held by interned fragment keys
	frag     []byte // scratch
	key      []byte // scratch
}

func newCollapse(l *state.Layout) *collapseTab {
	c := &collapseTab{
		sharedEnd: l.SharedCells(),
		shared:    map[string]uint32{},
		entries:   map[string]*colEntry{},
	}
	c.blockLo, c.blockHi = threadBlocks(l)
	c.blocks = make([]map[string]uint32, len(c.blockLo))
	for t := range c.blocks {
		c.blocks[t] = map[string]uint32{}
	}
	return c
}

func (c *collapseTab) intern(m map[string]uint32, b []byte) uint32 {
	if id, ok := m[string(b)]; ok {
		return id
	}
	id := uint32(len(m))
	m[string(b)] = id
	c.interned += uint64(len(b)) + 16 // key bytes + string header
	return id
}

func appendCells(b []byte, cells []int32) []byte {
	for _, v := range cells {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// slot finds or inserts the state, returning its bookkeeping entry and
// whether it was inserted now. Entries are stable pointers.
func (c *collapseTab) slot(st *state.State) (*colEntry, bool) {
	c.key = c.key[:0]
	c.frag = appendCells(c.frag[:0], st.Cells[:c.sharedEnd])
	id := c.intern(c.shared, c.frag)
	c.key = append(c.key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	for t := range c.blocks {
		c.frag = appendCells(c.frag[:0], st.Cells[c.blockLo[t]:c.blockHi[t]])
		pc := st.PCs[t]
		c.frag = append(c.frag, byte(pc), byte(pc>>8))
		id := c.intern(c.blocks[t], c.frag)
		c.key = append(c.key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	if e, ok := c.entries[string(c.key)]; ok {
		return e, false
	}
	e := &colEntry{}
	c.entries[string(c.key)] = e
	return e, true
}

// bytes estimates the table's live memory: interned fragments plus the
// id-tuple index (tuple key, entry, and map overhead per state).
func (c *collapseTab) bytes() uint64 {
	keyLen := uint64(4 * (1 + len(c.blocks)))
	return c.interned + uint64(len(c.entries))*(keyLen+16+32)
}

// bytes estimates the fingerprint table's live memory.
func (t *fpTable) bytes() uint64 {
	return uint64(len(t.keys)) * (16 + 8 + 8 + 1)
}

// bytes estimates the parallel striped set's live memory (key, entry,
// and per-bucket map overhead).
func (s *stripedSet) bytes() uint64 {
	var n uint64
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		n += uint64(len(s.stripes[i].m)) * (16 + 16 + 16)
		s.stripes[i].mu.Unlock()
	}
	return n
}
