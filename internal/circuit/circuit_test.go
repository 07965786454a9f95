package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"psketch/internal/sat"
)

const w = 6 // word width for property tests

// evalW evaluates a word to a signed integer under an input assignment.
func evalW(b *Builder, in map[Lit]bool, x Word) int64 {
	v := int64(0)
	for i, l := range x {
		if b.Eval(in, l) {
			v |= 1 << uint(i)
		}
	}
	if v >= 1<<(len(x)-1) {
		v -= 1 << len(x)
	}
	return v
}

// mkInputs allocates two symbolic words and an assignment for (a, b).
func mkInputs(bld *Builder, a, b int64) (Word, Word, map[Lit]bool) {
	x, y := bld.InputW(w), bld.InputW(w)
	in := map[Lit]bool{}
	for i := 0; i < w; i++ {
		in[x[i]] = (a>>uint(i))&1 == 1
		in[y[i]] = (b>>uint(i))&1 == 1
	}
	return x, y, in
}

func wrap(v int64) int64 {
	v &= (1 << w) - 1
	if v >= 1<<(w-1) {
		v -= 1 << w
	}
	return v
}

func TestAddSubMulProperty(t *testing.T) {
	f := func(a, b int8) bool {
		av, bv := int64(a)&((1<<w)-1), int64(b)&((1<<w)-1)
		bld := NewBuilder()
		x, y, in := mkInputs(bld, av, bv)
		if evalW(bld, in, bld.AddW(x, y)) != wrap(av+bv) {
			return false
		}
		if evalW(bld, in, bld.SubW(x, y)) != wrap(av-bv) {
			return false
		}
		return evalW(bld, in, bld.MulW(x, y)) == wrap(av*bv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareProperty(t *testing.T) {
	f := func(a, b int8) bool {
		av, bv := wrap(int64(a)), wrap(int64(b))
		bld := NewBuilder()
		x, y, in := mkInputs(bld, av&((1<<w)-1), bv&((1<<w)-1))
		if bld.Eval(in, bld.EqW(x, y)) != (av == bv) {
			return false
		}
		return bld.Eval(in, bld.LtS(x, y)) == (av < bv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDivModProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		av := int64(a) & ((1 << w) - 1)
		bv := int64(b) & ((1 << w) - 1)
		if bv == 0 {
			return true
		}
		bld := NewBuilder()
		x, y, in := mkInputs(bld, av, bv)
		q, r := bld.DivModU(x, y)
		qv := int64(0)
		for i, l := range q {
			if bld.Eval(in, l) {
				qv |= 1 << uint(i)
			}
		}
		rv := int64(0)
		for i, l := range r {
			if bld.Eval(in, l) {
				rv |= 1 << uint(i)
			}
		}
		return qv == av/bv && rv == av%bv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMuxAndConstFold(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	if b.And(x, True) != x || b.And(x, False) != False {
		t.Fatal("And folding broken")
	}
	if b.Or(x, False) != x || b.Or(x, True) != True {
		t.Fatal("Or folding broken")
	}
	if b.And(x, x.Not()) != False {
		t.Fatal("contradiction not folded")
	}
	if b.Mux(True, x, x.Not()) != x || b.Mux(False, x, x.Not()) != x.Not() {
		t.Fatal("Mux folding broken")
	}
}

func TestStructuralHashing(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	n1 := b.And(x, y)
	n2 := b.And(y, x)
	if n1 != n2 {
		t.Fatal("And not commutatively hashed")
	}
	before := b.NumNodes()
	b.And(x, y)
	if b.NumNodes() != before {
		t.Fatal("duplicate node created")
	}

	// Past several table doublings every pair still finds its node, and
	// node ids stay dense, in creation order.
	b = NewBuilder()
	table0 := len(b.table)
	ins, pairs, lits := manyAnds(b)
	if len(pairs) < 1<<17 {
		t.Fatalf("built %d Ands, want at least 2^17", len(pairs))
	}
	if len(b.table) < table0<<4 {
		t.Fatalf("table grew from %d to only %d slots", table0, len(b.table))
	}
	for k, l := range lits {
		if want := Lit((len(ins) + 1 + k) << 1); l != want {
			t.Fatalf("And #%d = %v, want %v (dense ids in creation order)", k, l, want)
		}
	}
	n := b.NumNodes()
	for k, p := range pairs {
		if got, rev := b.And(p[0], p[1]), b.And(p[1], p[0]); got != lits[k] || rev != lits[k] {
			t.Fatalf("pair #%d looks up %v/%v, want %v", k, got, rev, lits[k])
		}
	}
	if b.NumNodes() != n {
		t.Fatalf("lookups after growth created %d nodes", b.NumNodes()-n)
	}
}

// manyAnds builds one And per pair of 600 inputs (179,700 nodes, the
// second operand negated on odd pairs), enough to double the hash-cons
// table several times. It returns the inputs, the operand pairs in
// creation order and the literal each produced.
func manyAnds(b *Builder) (ins []Lit, pairs [][2]Lit, lits []Lit) {
	for i := 0; i < 600; i++ {
		ins = append(ins, b.Input())
	}
	for i := range ins {
		for j := i + 1; j < len(ins); j++ {
			x, y := ins[i], ins[j]
			if (i+j)%2 == 1 {
				y = y.Not()
			}
			pairs = append(pairs, [2]Lit{x, y})
			lits = append(lits, b.And(x, y))
		}
	}
	return ins, pairs, lits
}

func TestConstWConstVal(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 15, -16, 7} {
		wd := ConstW(5, v)
		got, ok := ConstVal(wd)
		if !ok || got != wrap5(v) {
			t.Fatalf("v=%d got=%d ok=%v", v, got, ok)
		}
	}
}

func wrap5(v int64) int64 {
	v &= 31
	if v >= 16 {
		v -= 32
	}
	return v
}

// Tseitin soundness: for random circuits, SAT models forced by pinning
// the output must agree with direct evaluation.
func TestTseitinAgreesWithEval(t *testing.T) {
	f := func(ops []uint8, inBits uint8) bool {
		b := NewBuilder()
		var ins []Lit
		for i := 0; i < 4; i++ {
			ins = append(ins, b.Input())
		}
		nodes := append([]Lit{}, ins...)
		for _, op := range ops {
			if len(ops) > 24 {
				ops = ops[:24]
			}
			a := nodes[int(op)%len(nodes)]
			c := nodes[int(op/8)%len(nodes)]
			switch op % 3 {
			case 0:
				nodes = append(nodes, b.And(a, c))
			case 1:
				nodes = append(nodes, b.Or(a, c.Not()))
			default:
				nodes = append(nodes, b.Xor(a, c))
			}
		}
		out := nodes[len(nodes)-1]
		in := map[Lit]bool{}
		for i, l := range ins {
			in[l] = (inBits>>uint(i))&1 == 1
		}
		want := b.Eval(in, out)

		s := sat.New()
		m := NewVarMap()
		ol := b.ToSAT(s, m, out)
		// Pin the inputs and check the forced output value.
		var assume []sat.Lit
		for _, l := range ins {
			v := b.SATVar(s, m, l)
			assume = append(assume, sat.MkLit(v, !in[l]))
		}
		if !s.Solve(assume...) {
			return false
		}
		got := s.Value(ol.Var()) != ol.Neg()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	// The same agreement on a builder whose table has grown past 2^17
	// nodes: xor-chains over random nodes of manyAnds, encoded into one
	// solver and checked under random input assignments.
	b := NewBuilder()
	ins, _, lits := manyAnds(b)
	rng := rand.New(rand.NewSource(7))
	var outs []Lit
	for r := 0; r < 8; r++ {
		acc := False
		for k := 0; k < 64; k++ {
			acc = b.Xor(acc, b.And(lits[rng.Intn(len(lits))], lits[rng.Intn(len(lits))].Not()))
		}
		outs = append(outs, acc)
	}
	s := sat.New()
	m := NewVarMap()
	var sOuts []sat.Lit
	for _, o := range outs {
		sOuts = append(sOuts, b.ToSAT(s, m, o))
	}
	for trial := 0; trial < 4; trial++ {
		in := map[Lit]bool{}
		var assume []sat.Lit
		for _, l := range ins {
			in[l] = rng.Intn(2) == 1
			assume = append(assume, sat.MkLit(b.SATVar(s, m, l), !in[l]))
		}
		if !s.Solve(assume...) {
			t.Fatalf("trial %d: pinned inputs unsatisfiable", trial)
		}
		for k, o := range outs {
			if got, want := s.Value(sOuts[k].Var()) != sOuts[k].Neg(), b.Eval(in, o); got != want {
				t.Fatalf("trial %d output %d: SAT=%v Eval=%v", trial, k, got, want)
			}
		}
	}
}
