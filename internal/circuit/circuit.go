// Package circuit builds and-inverter graphs (AIGs) with structural
// hashing, plus bit-vector word operations on top. The symbolic
// evaluator encodes `fail(Skt[c])` as a single literal over hole-bit
// inputs (§6); Tseitin conversion then feeds the CDCL solver, with a
// persistent node→variable map so the CEGIS loop can keep one
// incremental SAT instance across iterations.
package circuit

import (
	"fmt"
	"math"

	"psketch/internal/sat"
)

// Lit is a literal over AIG nodes: node id << 1 | sign bit.
// Node 0 is the constant true, so True = 0 and False = 1.
type Lit int32

// The boolean constants.
const (
	True  Lit = 0
	False Lit = 1
)

// Not complements the literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) node() int32 { return int32(l) >> 1 }
func (l Lit) neg() bool   { return l&1 == 1 }

// IsConst reports whether the literal is a constant, returning its
// value.
func (l Lit) IsConst() (bool, bool) {
	if l.node() == 0 {
		return true, !l.neg()
	}
	return false, false
}

type node struct {
	a, b Lit // a == b == -1 for inputs; node 0 is the constant
}

// Builder constructs a hash-consed AIG.
//
// Nodes live in one array in creation order; a node's id is its index.
// The hash-cons table is open-addressed: each slot holds the id of an
// And node, or 0 (the constant, never an And) when empty, and a node's
// home slot is a hash of its (a, b) pair. Lookups probe linearly. The
// table doubles before it becomes half full, so it is always at least
// twice the node count. Neither array holds a pointer.
type Builder struct {
	nodes []node
	table []int32
	// evalMemo is Eval's dense memo: evalMemo[n] is evalEpoch<<1 | value
	// when node n has been evaluated by the current Eval call.
	evalMemo  []uint32
	evalEpoch uint32
	// ToSAT's reusable scratch: the clause batch and the DFS stack.
	satLits  []sat.Lit
	satEnds  []int
	satStack []int32
}

// minTable is the initial hash-cons table size (a power of two).
const minTable = 1 << 10

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	b := &Builder{table: make([]int32, minTable)}
	b.nodes = append(b.nodes, node{}) // constant node 0
	return b
}

// NumNodes returns the number of AIG nodes (including the constant).
func (b *Builder) NumNodes() int { return len(b.nodes) }

// SizeBytes returns the memory the builder holds in its node array,
// hash-cons table and Eval memo (8, 4 and 4 bytes per element of
// capacity). ToSAT's scratch is transient and not counted.
func (b *Builder) SizeBytes() int64 {
	return 8*int64(cap(b.nodes)) + 4*int64(cap(b.table)) + 4*int64(cap(b.evalMemo))
}

// Input allocates a fresh input node.
func (b *Builder) Input() Lit {
	id := len(b.nodes)
	b.nodes = append(b.nodes, node{a: -1, b: -1})
	return Lit(id << 1)
}

// Const returns the constant literal for v.
func Const(v bool) Lit {
	if v {
		return True
	}
	return False
}

// slot returns the home slot of the pair (x, y) in a table of the
// given mask.
func slot(x, y Lit, mask uint64) uint64 {
	h := (uint64(uint32(x))<<32 | uint64(uint32(y))) * 0x9e3779b97f4a7c15
	return (h ^ h>>29) & mask
}

// And builds a ∧ b with constant folding and structural hashing.
func (b *Builder) And(x, y Lit) Lit {
	switch {
	case x == False || y == False:
		return False
	case x == True:
		return y
	case y == True:
		return x
	case x == y:
		return x
	case x == y.Not():
		return False
	}
	if x > y {
		x, y = y, x
	}
	if 2*len(b.nodes) >= len(b.table) {
		b.grow()
	}
	mask := uint64(len(b.table) - 1)
	for i := slot(x, y, mask); ; i = (i + 1) & mask {
		id := b.table[i]
		if id == 0 {
			id = int32(len(b.nodes))
			b.nodes = append(b.nodes, node{a: x, b: y})
			b.table[i] = id
			return Lit(id << 1)
		}
		if nd := b.nodes[id]; nd.a == x && nd.b == y {
			return Lit(id << 1)
		}
	}
}

// grow doubles the hash-cons table and reinserts every And node.
func (b *Builder) grow() {
	t := make([]int32, 2*len(b.table))
	mask := uint64(len(t) - 1)
	for id := 1; id < len(b.nodes); id++ {
		nd := b.nodes[id]
		if nd.a < 0 {
			continue
		}
		i := slot(nd.a, nd.b, mask)
		for t[i] != 0 {
			i = (i + 1) & mask
		}
		t[i] = int32(id)
	}
	b.table = t
}

// Or builds x ∨ y.
func (b *Builder) Or(x, y Lit) Lit { return b.And(x.Not(), y.Not()).Not() }

// Xor builds x ⊕ y.
func (b *Builder) Xor(x, y Lit) Lit {
	return b.Or(b.And(x, y.Not()), b.And(x.Not(), y))
}

// Eq builds x ↔ y.
func (b *Builder) Eq(x, y Lit) Lit { return b.Xor(x, y).Not() }

// Mux builds if c then t else f.
func (b *Builder) Mux(c, t, f Lit) Lit {
	if t == f {
		return t
	}
	return b.Or(b.And(c, t), b.And(c.Not(), f))
}

// Implies builds x → y.
func (b *Builder) Implies(x, y Lit) Lit { return b.Or(x.Not(), y) }

// AndN folds a conjunction.
func (b *Builder) AndN(ls ...Lit) Lit {
	acc := True
	for _, l := range ls {
		acc = b.And(acc, l)
	}
	return acc
}

// OrN folds a disjunction.
func (b *Builder) OrN(ls ...Lit) Lit {
	acc := False
	for _, l := range ls {
		acc = b.Or(acc, l)
	}
	return acc
}

// Eval computes the value of l under an input assignment. The memo is
// builder-owned, so Eval, like ToSAT, must not run concurrently with
// any other use of the builder.
func (b *Builder) Eval(inputs map[Lit]bool, l Lit) bool {
	if len(b.evalMemo) < len(b.nodes) {
		b.evalMemo = append(b.evalMemo, make([]uint32, len(b.nodes)-len(b.evalMemo))...)
	}
	if b.evalEpoch == math.MaxUint32>>1 {
		clear(b.evalMemo)
		b.evalEpoch = 0
	}
	b.evalEpoch++
	return b.eval(inputs, l.node()) != l.neg()
}

func (b *Builder) eval(inputs map[Lit]bool, n int32) bool {
	if n == 0 {
		return true
	}
	if m := b.evalMemo[n]; m>>1 == b.evalEpoch {
		return m&1 == 1
	}
	nd := b.nodes[n]
	var v bool
	if nd.a < 0 {
		v = inputs[Lit(n<<1)]
	} else {
		v = b.eval(inputs, nd.a.node()) != nd.a.neg() &&
			b.eval(inputs, nd.b.node()) != nd.b.neg()
	}
	b.evalMemo[n] = b.evalEpoch<<1 | uint32(b2u(v))
	return v
}

func b2u(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// VarMap persists the AIG-node → SAT-variable mapping across
// incremental encodings.
type VarMap struct {
	vars []int32 // node id -> sat var + 1 (0 = unmapped)
}

// NewVarMap returns an empty mapping.
func NewVarMap() *VarMap { return &VarMap{} }

// reserve makes every node id below n addressable.
func (m *VarMap) reserve(n int) {
	if len(m.vars) < n {
		m.vars = append(m.vars, make([]int32, n-len(m.vars))...)
	}
}

func (m *VarMap) get(n int32) (int, bool) {
	if int(n) < len(m.vars) && m.vars[n] != 0 {
		return int(m.vars[n]) - 1, true
	}
	return 0, false
}

// ToSAT Tseitin-encodes the cone of l into the solver (a plain Solver
// or a Portfolio), reusing previously encoded nodes, and returns the
// SAT literal for l.
//
// The cone's unencoded nodes are numbered in depth-first pre-order
// (first operand first) from the solver's next variable, and their
// clauses are buffered in post-order, each node's three clauses after
// its operands'. The solver then allocates all the new variables in
// one NewVars call and takes the clauses in one AddClauses call, so a
// portfolio broadcasts each cone once per worker. The variables and
// the clause stream are those of a recursive encoding that allocates
// each variable on first visit.
func (b *Builder) ToSAT(s sat.Adder, m *VarMap, l Lit) sat.Lit {
	b.satLits = b.satLits[:0]
	b.satEnds = b.satEnds[:0]
	m.reserve(len(b.nodes))
	emit := func(lits ...sat.Lit) {
		b.satLits = append(b.satLits, lits...)
		b.satEnds = append(b.satEnds, len(b.satLits))
	}
	base := int32(s.NumVars())
	next := base
	// visit numbers an unencoded node and reports whether its clauses
	// still have to be emitted (And nodes, after their operands).
	visit := func(n int32) bool {
		next++
		m.vars[n] = next // var next-1, stored +1
		switch {
		case n == 0:
			emit(sat.MkLit(int(next-1), false)) // constant true
			return false
		case b.nodes[n].a < 0:
			return false // input
		}
		return true
	}
	stack := b.satStack[:0]
	if root := l.node(); m.vars[root] == 0 && visit(root) {
		stack = append(stack, root)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		nd := b.nodes[n]
		if c := nd.a.node(); m.vars[c] == 0 {
			if visit(c) {
				stack = append(stack, c)
			}
			continue
		}
		if c := nd.b.node(); m.vars[c] == 0 {
			if visit(c) {
				stack = append(stack, c)
			}
			continue
		}
		stack = stack[:len(stack)-1]
		la := sat.MkLit(int(m.vars[nd.a.node()]-1), nd.a.neg())
		lb := sat.MkLit(int(m.vars[nd.b.node()]-1), nd.b.neg())
		ln := sat.MkLit(int(m.vars[n]-1), false)
		// n ↔ (a ∧ b)
		emit(ln.Not(), la)
		emit(ln.Not(), lb)
		emit(la.Not(), lb.Not(), ln)
	}
	b.satStack = stack
	if k := int(next - base); k > 0 {
		s.NewVars(k)
	}
	if len(b.satEnds) > 0 {
		s.AddClauses(b.satLits, b.satEnds)
	}
	return sat.MkLit(int(m.vars[l.node()]-1), l.neg())
}

// SATVar returns the SAT variable assigned to an input literal,
// allocating it if needed (used to read hole values out of a model).
func (b *Builder) SATVar(s sat.Adder, m *VarMap, in Lit) int {
	if in.neg() {
		panic("circuit: SATVar on negated literal")
	}
	if v, ok := m.get(in.node()); ok {
		return v
	}
	v := s.NewVar()
	m.reserve(int(in.node()) + 1)
	m.vars[in.node()] = int32(v) + 1
	return v
}

// ------------------------------------------------------------- words

// Word is a little-endian bit vector (bit 0 = LSB).
type Word []Lit

// ConstW builds a w-bit constant word.
func ConstW(w int, v int64) Word {
	out := make(Word, w)
	for i := 0; i < w; i++ {
		if (v>>uint(i))&1 == 1 {
			out[i] = True
		} else {
			out[i] = False
		}
	}
	return out
}

// ConstVal extracts the constant value of a word if fully constant
// (sign-extended).
func ConstVal(x Word) (int64, bool) {
	v := int64(0)
	for i, l := range x {
		c, bit := l.IsConst()
		if !c {
			return 0, false
		}
		if bit {
			v |= 1 << uint(i)
		}
	}
	w := uint(len(x))
	if w < 64 && v >= int64(1)<<(w-1) {
		v -= int64(1) << w
	}
	return v, true
}

// InputW allocates a word of fresh inputs.
func (b *Builder) InputW(w int) Word {
	out := make(Word, w)
	for i := range out {
		out[i] = b.Input()
	}
	return out
}

// ZextW zero-extends or truncates to w bits.
func ZextW(x Word, w int) Word {
	out := make(Word, w)
	for i := 0; i < w; i++ {
		if i < len(x) {
			out[i] = x[i]
		} else {
			out[i] = False
		}
	}
	return out
}

// SextW sign-extends or truncates to w bits.
func SextW(x Word, w int) Word {
	out := make(Word, w)
	for i := 0; i < w; i++ {
		switch {
		case i < len(x):
			out[i] = x[i]
		case len(x) > 0:
			out[i] = x[len(x)-1]
		default:
			out[i] = False
		}
	}
	return out
}

// AddW builds x + y (same width, wrapping).
func (b *Builder) AddW(x, y Word) Word {
	out := make(Word, len(x))
	carry := False
	for i := range x {
		s := b.Xor(b.Xor(x[i], y[i]), carry)
		carry = b.Or(b.And(x[i], y[i]), b.And(carry, b.Xor(x[i], y[i])))
		out[i] = s
	}
	return out
}

// NegW builds two's-complement negation.
func (b *Builder) NegW(x Word) Word {
	inv := make(Word, len(x))
	for i := range x {
		inv[i] = x[i].Not()
	}
	return b.AddW(inv, ConstW(len(x), 1))
}

// SubW builds x - y.
func (b *Builder) SubW(x, y Word) Word { return b.AddW(x, b.NegW(y)) }

// MulW builds x * y (wrapping shift-and-add).
func (b *Builder) MulW(x, y Word) Word {
	w := len(x)
	acc := ConstW(w, 0)
	for i := 0; i < w; i++ {
		shifted := make(Word, w)
		for j := 0; j < w; j++ {
			if j < i {
				shifted[j] = False
			} else {
				shifted[j] = b.And(x[j-i], y[i])
			}
		}
		acc = b.AddW(acc, shifted)
	}
	return acc
}

// EqW builds x == y.
func (b *Builder) EqW(x, y Word) Lit {
	acc := True
	for i := range x {
		acc = b.And(acc, b.Eq(x[i], y[i]))
	}
	return acc
}

// LtS builds the signed comparison x < y.
func (b *Builder) LtS(x, y Word) Lit {
	w := len(x)
	// x < y  ⇔  (sx ∧ ¬sy) ∨ (sx ↔ sy) ∧ unsigned_lt(x, y)
	sx, sy := x[w-1], y[w-1]
	lt := False
	for i := 0; i < w-1; i++ {
		lt = b.Mux(b.Xor(x[i], y[i]), b.And(x[i].Not(), y[i]), lt)
	}
	sameSign := b.Eq(sx, sy)
	return b.Or(b.And(sx, sy.Not()), b.And(sameSign, lt))
}

// MuxW builds if c then t else f, element-wise.
func (b *Builder) MuxW(c Lit, t, f Word) Word {
	out := make(Word, len(t))
	for i := range t {
		out[i] = b.Mux(c, t[i], f[i])
	}
	return out
}

// DivModU builds the unsigned restoring division x / y and x % y.
// The caller must handle y == 0 separately (results are unspecified).
func (b *Builder) DivModU(x, y Word) (q, r Word) {
	w := len(x)
	q = ConstW(w, 0)
	r = ConstW(w, 0)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | x[i]
		nr := make(Word, w)
		nr[0] = x[i]
		for j := 1; j < w; j++ {
			nr[j] = r[j-1]
		}
		r = nr
		// if r >= y { r -= y; q[i] = 1 }
		ge := b.geU(r, y)
		r = b.MuxW(ge, b.SubW(r, y), r)
		q[i] = ge
	}
	return q, r
}

// geU builds the unsigned comparison x >= y.
func (b *Builder) geU(x, y Word) Lit {
	ge := True
	for i := 0; i < len(x); i++ {
		ge = b.Mux(b.Xor(x[i], y[i]), b.And(x[i], y[i].Not()), ge)
	}
	return ge
}

// IsZeroW builds x == 0.
func (b *Builder) IsZeroW(x Word) Lit {
	any := False
	for _, l := range x {
		any = b.Or(any, l)
	}
	return any.Not()
}

// String renders a literal for debugging.
func (l Lit) String() string {
	if l == True {
		return "T"
	}
	if l == False {
		return "F"
	}
	if l.neg() {
		return fmt.Sprintf("!n%d", l.node())
	}
	return fmt.Sprintf("n%d", l.node())
}
