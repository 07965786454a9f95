// Package state defines the bounded machine state of a lowered program:
// a flat vector of small integers holding globals, the heap arenas, and
// every sequence's locals, plus per-thread program counters. States are
// cheap to copy and hash, which the explicit-state model checker
// depends on.
package state

import (
	"fmt"

	"psketch/internal/ir"
	"psketch/internal/types"
)

// Layout assigns every storage cell of a program a fixed offset.
//
// Cell encoding: ints are W-bit two's complement stored in an int32;
// bools are 0/1; references are arena slot numbers (0 = null). Struct
// fields are scalars (the checker rejects array fields).
type Layout struct {
	Prog *ir.Program
	Size int // number of value cells (excluding pcs)

	globalOff []int
	heapBase  []int   // by index in Prog.Structs
	seqBase   [][]int // by Seq.Index: per-local offsets
	sharedEnd int     // cells [0,sharedEnd) are globals + arenas
}

// NewLayout computes the layout for a lowered program.
func NewLayout(p *ir.Program) (*Layout, error) {
	l := &Layout{Prog: p}
	off := 0
	cells := func(t types.Type) int {
		if t.IsArray() {
			return t.Len
		}
		return 1
	}
	l.globalOff = make([]int, len(p.Globals))
	for i, g := range p.Globals {
		l.globalOff[i] = off
		off += cells(g.Type)
	}
	// Heap arenas, in struct declaration order.
	l.heapBase = make([]int, len(p.Structs))
	for si, st := range p.Structs {
		for _, f := range st.Info.Fields {
			if f.Type.IsArray() {
				return nil, fmt.Errorf("state: struct %s has array field %s (not supported)", st.Name, f.Name)
			}
		}
		l.heapBase[si] = off
		off += len(st.Info.Fields) * st.Arena
	}
	l.sharedEnd = off
	for _, seq := range p.Seqs() {
		offs := make([]int, len(seq.Locals))
		for i, v := range seq.Locals {
			offs[i] = off
			off += cells(v.Type)
		}
		l.seqBase = append(l.seqBase, offs)
	}
	l.Size = off
	return l, nil
}

// GlobalOff returns the cell offset of global i.
func (l *Layout) GlobalOff(i int) int { return l.globalOff[i] }

// SharedCells returns the number of leading cells holding shared state
// (globals followed by the heap arenas); the remaining cells are
// per-sequence thread-local storage. The model checker's footprint
// bitsets range over exactly these cells.
func (l *Layout) SharedCells() int { return l.sharedEnd }

// LocalOff returns the cell offset of a sequence's local i.
func (l *Layout) LocalOff(seq *ir.Seq, i int) int { return l.seqBase[seq.Index][i] }

// FieldCell returns the cell offset of field fi of slot (1-based) in
// the arena of Prog.Structs[si], and false when the slot is outside
// the arena.
func (l *Layout) FieldCell(si, fi int, slot int32) (int, bool) {
	st := &l.Prog.Structs[si]
	if slot < 1 || int(slot) > st.Arena {
		return 0, false
	}
	return l.heapBase[si] + (int(slot)-1)*len(st.Info.Fields) + fi, true
}

// FieldOff returns the cell offset of field f of slot s (1-based) in
// the arena of the named struct. It looks both names up; evaluators
// use FieldCell with the indices lowering resolved.
func (l *Layout) FieldOff(structName, field string, slot int32) (int, error) {
	si := l.Prog.StructIndex(structName)
	fi := -1
	if si >= 0 {
		_, fi = l.Prog.Structs[si].Info.Field(field)
	}
	if fi < 0 {
		return 0, fmt.Errorf("state: unknown field %s.%s", structName, field)
	}
	off, ok := l.FieldCell(si, fi, slot)
	if !ok {
		return 0, fmt.Errorf("state: slot %d out of arena %s[%d]", slot, structName, l.Prog.Structs[si].Arena)
	}
	return off, nil
}

// State is a machine state: the value cells plus one program counter
// per forked thread (the prologue/epilogue run deterministically).
type State struct {
	Cells []int32
	PCs   []int32
}

// NewState allocates a zeroed state for the layout.
func (l *Layout) NewState() *State {
	return &State{
		Cells: make([]int32, l.Size),
		PCs:   make([]int32, len(l.Prog.Threads)),
	}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{Cells: make([]int32, len(s.Cells)), PCs: make([]int32, len(s.PCs))}
	copy(c.Cells, s.Cells)
	copy(c.PCs, s.PCs)
	return c
}

// CopyFrom overwrites s with src's contents (the states must share a
// layout). It lets the model checker reuse freelisted states instead of
// allocating a fresh Clone per transition.
func (s *State) CopyFrom(src *State) {
	copy(s.Cells, src.Cells)
	copy(s.PCs, src.PCs)
}

// Key returns a 128-bit FNV-1a fingerprint of the state, used as the
// visited-set identity by the model checker (hash compaction, as in
// SPIN).
func (s *State) Key() [16]byte {
	// Two independent 64-bit FNV-1a-style streams with distinct offset
	// bases and primes give a 128-bit fingerprint.
	const (
		off1   = uint64(14695981039346656037)
		off2   = uint64(0x9ae16a3b2f90404f)
		prime1 = uint64(1099511628211)
		prime2 = uint64(0x100000001b3 ^ 0x5bd1e995)
	)
	h1, h2 := off1, off2
	feed := func(v int32) {
		for i := 0; i < 4; i++ {
			b := byte(v >> (8 * i))
			h1 = (h1 ^ uint64(b)) * prime1
			h2 = (h2 ^ uint64(b)) * prime2
		}
	}
	for _, v := range s.Cells {
		feed(v)
	}
	for _, v := range s.PCs {
		feed(v)
	}
	var k [16]byte
	for i := 0; i < 8; i++ {
		k[i] = byte(h1 >> (8 * i))
		k[8+i] = byte(h2 >> (8 * i))
	}
	return k
}
