package mc

import (
	"math/bits"

	"psketch/internal/state"
)

// This file implements the checker's incremental state hashing. The
// visited-set identity of a state is a 128-bit Zobrist-style
// fingerprint: two independent 64-bit streams, each the XOR over all
// cells of mix(cell, value) plus one mix(pcSlot, pc) per thread. XOR
// composition is what makes the hash incremental — executing a step of
// thread t touches only the step's written shared cells (known from
// the POR footprints, which over-approximate soundly: XORing an
// unchanged cell out and back in cancels) and thread t's local block,
// so the successor's hash is the parent's hash XOR a small delta
// instead of a full-vector rehash.

// Two fixed seeds give two independent streams; a collision must happen
// in both simultaneously (hash compaction, as in SPIN).
const (
	zobSeed1 = 0x9e3779b97f4a7c15
	zobSeed2 = 0xc2b2ae3d27d4eb4f
)

// zmix is the splitmix64 finalizer over (seed, cell, value). It is the
// sole mixing primitive of both streams.
func zmix(seed uint64, cell int, val int32) uint64 {
	x := seed ^ (uint64(cell)+1)*0x9e3779b97f4a7c15 ^ uint64(uint32(val))*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hasher precomputes the per-thread layout slices the incremental
// updates need: each thread's contiguous local-cell block and, per
// step, the flattened list of shared cells the step may write.
type hasher struct {
	size      int // value cells; PC t hashes as pseudo-cell size+t
	sharedEnd int

	blockLo, blockHi []int // per thread: local cell range [lo,hi)

	// wcells[t][pc] lists the shared cells step pc of thread t may
	// write; nil with wall[t][pc] set means the step was widened to
	// "may write anything" and the delta rescans all shared cells.
	wcells [][][]int32
	wall   [][]bool
}

// threadBlocks returns each forked thread's contiguous local-cell
// range [lo,hi) in the layout (lo == hi for threads without locals).
func threadBlocks(l *state.Layout) (lo, hi []int) {
	p := l.Prog
	lo = make([]int, len(p.Threads))
	hi = make([]int, len(p.Threads))
	for t, seq := range p.Threads {
		if len(seq.Locals) == 0 {
			continue
		}
		lo[t] = l.LocalOff(seq, 0)
		last := len(seq.Locals) - 1
		n := 1
		if seq.Locals[last].Type.IsArray() {
			n = seq.Locals[last].Type.Len
		}
		hi[t] = l.LocalOff(seq, last) + n
	}
	return lo, hi
}

func newHasher(l *state.Layout, pt *porTables) *hasher {
	p := l.Prog
	h := &hasher{
		size:      l.Size,
		sharedEnd: l.SharedCells(),
		wcells:    make([][][]int32, len(p.Threads)),
		wall:      make([][]bool, len(p.Threads)),
	}
	h.blockLo, h.blockHi = threadBlocks(l)
	for t := range p.Threads {
		steps := pt.cur[t]
		h.wcells[t] = make([][]int32, len(steps))
		h.wall[t] = make([]bool, len(steps))
		for pc, fp := range steps {
			var cells []int32
			for w := 0; w < len(fp.w); w++ {
				for b := fp.w[w]; b != 0; b &= b - 1 {
					c := w*64 + bits.TrailingZeros64(b)
					if c >= h.sharedEnd {
						break
					}
					cells = append(cells, int32(c))
				}
			}
			if len(cells) >= h.sharedEnd {
				h.wall[t][pc] = true
			} else {
				h.wcells[t][pc] = cells
			}
		}
	}
	return h
}

// full computes the fingerprint of st from scratch (used for the root
// and for cross-checking the incremental updates in tests).
func (h *hasher) full(st *state.State) (uint64, uint64) {
	var h1, h2 uint64
	for c, v := range st.Cells {
		h1 ^= zmix(zobSeed1, c, v)
		h2 ^= zmix(zobSeed2, c, v)
	}
	for t, pc := range st.PCs {
		h1 ^= zmix(zobSeed1, h.size+t, pc)
		h2 ^= zmix(zobSeed2, h.size+t, pc)
	}
	return h1, h2
}

// block XORs thread t's contribution: its local cells and its PC.
func (h *hasher) block(st *state.State, t int) (uint64, uint64) {
	var h1, h2 uint64
	for c := h.blockLo[t]; c < h.blockHi[t]; c++ {
		v := st.Cells[c]
		h1 ^= zmix(zobSeed1, c, v)
		h2 ^= zmix(zobSeed2, c, v)
	}
	pc := st.PCs[t]
	h1 ^= zmix(zobSeed1, h.size+t, pc)
	h2 ^= zmix(zobSeed2, h.size+t, pc)
	return h1, h2
}

// sharedW XORs the contribution of the shared cells step pc of thread t
// may write. Called before and after executing the step, the XOR of the
// two results is the step's shared-state hash delta.
func (h *hasher) sharedW(st *state.State, t, pc int) (uint64, uint64) {
	var h1, h2 uint64
	if h.wall[t][pc] {
		for c := 0; c < h.sharedEnd; c++ {
			v := st.Cells[c]
			h1 ^= zmix(zobSeed1, c, v)
			h2 ^= zmix(zobSeed2, c, v)
		}
		return h1, h2
	}
	for _, c := range h.wcells[t][pc] {
		v := st.Cells[c]
		h1 ^= zmix(zobSeed1, int(c), v)
		h2 ^= zmix(zobSeed2, int(c), v)
	}
	return h1, h2
}

// key16 packs the two streams into the visited table's byte key.
func key16(h1, h2 uint64) [16]byte {
	var k [16]byte
	for i := 0; i < 8; i++ {
		k[i] = byte(h1 >> (8 * i))
		k[8+i] = byte(h2 >> (8 * i))
	}
	return k
}
