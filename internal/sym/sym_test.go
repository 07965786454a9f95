package sym

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"psketch/internal/ast"
	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/interp"
	"psketch/internal/ir"
	"psketch/internal/parser"
	"psketch/internal/state"
)

// crossSrc is a sequential torture program exercising arithmetic
// (including division), arrays, heap records, builtins, short-circuit
// evaluation, generator choices and holes.
const crossSrc = `
struct Node {
	Node next = null;
	int v;
}

Node head;
int[4] arr;

int F(int a, int b) {
	Node n1 = new Node(a);
	Node n2 = new Node(b);
	n1.next = n2;
	head = n1;
	int acc = a + b * 2 - ??;
	if (b != 0) { acc = acc + a / b; }
	if (b != 0) { acc = acc + a % b; }
	arr[0] = acc;
	arr[1] = {| a | b | a + b |};
	if (a < b && head.next != null) { arr[2] = head.next.v; }
	if (a == b || {| true | false |}) { arr[3] = 1; }
	int old = AtomicSwap(arr[0], 7);
	acc = acc + old + arr[0];
	bool did = CAS(arr[1], b, a);
	if (did) { acc = acc + 1; }
	acc = acc + AtomicReadAndIncr(arr[2]);
	acc = acc - AtomicReadAndDecr(arr[3]);
	Node p = head;
	while (p != null) {
		acc = acc + p.v;
		p = p.next;
	}
	return acc;
}
`

func buildCross(t testing.TB) (*ir.Program, *state.Layout, *desugar.Sketch) {
	t.Helper()
	prog, err := parser.Parse(crossSrc)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "F", desugar.Options{IntWidth: 6, LoopBound: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	l, err := state.NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, l, sk
}

// runConcrete executes the program with the interpreter.
func runConcrete(p *ir.Program, l *state.Layout, cand desugar.Candidate, a, b int32) (result int32, fail bool) {
	st := l.NewState()
	seq := p.Prologue
	ctx := interp.NewCtx(l, st, seq, cand)
	st.Cells[l.LocalOff(seq, seq.Local("a"))] = a
	st.Cells[l.LocalOff(seq, seq.Local("b"))] = b
	for _, sq := range []*ir.Seq{p.GlobalInit, seq} {
		c2 := interp.NewCtx(l, st, sq, cand)
		for _, step := range sq.Steps {
			ok, f := c2.EvalGuards(step)
			if f != nil {
				return 0, true
			}
			if !ok {
				continue
			}
			en, f := c2.EvalCond(step)
			if f != nil || !en {
				return 0, true
			}
			if f := c2.ExecBody(step); f != nil {
				return 0, true
			}
		}
	}
	_ = ctx
	ri := seq.Local(p.ResultVar)
	return st.Cells[l.LocalOff(seq, ri)], false
}

// runSymbolic executes the program with the symbolic evaluator using
// constant holes and inputs, then folds the circuits to constants.
func runSymbolic(t testing.TB, p *ir.Program, l *state.Layout, sk *desugar.Sketch, cand desugar.Candidate, a, b int32) (result int32, fail bool) {
	bld := circuit.NewBuilder()
	holes := HoleConsts(sk, cand)
	e := New(bld, l, holes)
	seq := p.Prologue
	if err := e.SetVarCells(seq, "a", []circuit.Word{circuit.ConstW(p.W, int64(a))}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetVarCells(seq, "b", []circuit.Word{circuit.ConstW(p.W, int64(b))}); err != nil {
		t.Fatal(err)
	}
	e.RunSeq(p.GlobalInit, circuit.True)
	e.RunSeq(seq, circuit.True)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if ok, v := e.Fail.IsConst(); !ok {
		t.Fatal("fail literal not constant under constant inputs")
	} else if v {
		return 0, true
	}
	out, err := e.ReadVar(seq, p.ResultVar)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := circuit.ConstVal(out[0])
	if !ok {
		t.Fatal("result not constant under constant inputs")
	}
	return int32(v), false
}

// The central soundness property: on every input and candidate, the
// symbolic evaluator computes exactly what the concrete interpreter
// does — same failure verdict, same result.
func TestSymMatchesInterp(t *testing.T) {
	p, l, sk := buildCross(t)
	f := func(a, b int8, h1, h2, h3 uint8) bool {
		av := int32(a) % 32
		bv := int32(b) % 32
		cand := make(desugar.Candidate, len(sk.Holes))
		vals := []uint8{h1, h2, h3}
		for i, m := range sk.Holes {
			v := int64(vals[i%3])
			if m.Kind == desugar.HoleChoice {
				v %= int64(m.Choices)
			} else {
				v &= (1 << uint(m.Bits)) - 1
			}
			cand[i] = v
		}
		cr, cf := runConcrete(p, l, cand, av, bv)
		sr, sf := runSymbolic(t, p, l, sk, cand, av, bv)
		if cf != sf {
			t.Logf("a=%d b=%d cand=%v: concrete fail=%v symbolic fail=%v", av, bv, cand, cf, sf)
			return false
		}
		if !cf && cr != sr {
			t.Logf("a=%d b=%d cand=%v: concrete=%d symbolic=%d", av, bv, cand, cr, sr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// With symbolic holes, evaluating the projection-style failure literal
// under a concrete assignment must agree with the concrete run too.
func TestSymbolicHolesAgree(t *testing.T) {
	p, l, sk := buildCross(t)
	bld := circuit.NewBuilder()
	holes := HoleInputs(bld, sk)
	e := New(bld, l, holes)
	seq := p.Prologue
	if err := e.SetVarCells(seq, "a", []circuit.Word{circuit.ConstW(p.W, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetVarCells(seq, "b", []circuit.Word{circuit.ConstW(p.W, 5)}); err != nil {
		t.Fatal(err)
	}
	e.RunSeq(p.GlobalInit, circuit.True)
	e.RunSeq(seq, circuit.True)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	for h1 := int64(0); h1 < 4; h1++ {
		cand := make(desugar.Candidate, len(sk.Holes))
		for i, m := range sk.Holes {
			v := h1
			if m.Kind == desugar.HoleChoice {
				v %= int64(m.Choices)
			} else {
				v &= (1 << uint(m.Bits)) - 1
			}
			cand[i] = v
		}
		in := map[circuit.Lit]bool{}
		for i, w := range holes {
			for j, lit := range w {
				in[lit] = (cand.Value(i)>>uint(j))&1 == 1
			}
		}
		symFail := bld.Eval(in, e.Fail)
		_, concFail := runConcrete(p, l, cand, 3, 5)
		if symFail != concFail {
			t.Fatalf("cand %v: symbolic fail=%v concrete fail=%v", cand, symFail, concFail)
		}
	}
}

// SetVarCells/ReadVar input validation.
func TestVarAccessErrors(t *testing.T) {
	p, l, sk := buildCross(t)
	b := circuit.NewBuilder()
	e := New(b, l, HoleConsts(sk, make(desugar.Candidate, len(sk.Holes))))
	if err := e.SetVarCells(p.Prologue, "nosuch", nil); err == nil {
		t.Fatal("expected unknown-variable error")
	}
	if err := e.SetVarCells(p.Prologue, "a", []circuit.Word{circuit.ConstW(6, 1), circuit.ConstW(6, 2)}); err == nil {
		t.Fatal("expected cell-count error")
	}
	if _, err := e.ReadVar(p.Prologue, "nosuch"); err == nil {
		t.Fatal("expected unknown-variable error")
	}
}

// Division by zero must be a guarded failure, not a bogus value: a
// candidate that divides by zero on the given input fails.
func TestSymbolicDivByZero(t *testing.T) {
	p, l, sk := buildCross(t)
	_ = p
	b := circuit.NewBuilder()
	e := New(b, l, HoleConsts(sk, make(desugar.Candidate, len(sk.Holes))))
	seq := l.Prog.Prologue
	if err := e.SetVarCells(seq, "a", []circuit.Word{circuit.ConstW(6, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetVarCells(seq, "b", []circuit.Word{circuit.ConstW(6, 0)}); err != nil {
		t.Fatal(err)
	}
	e.RunSeq(l.Prog.GlobalInit, circuit.True)
	e.RunSeq(seq, circuit.True)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	// The cross program guards its divisions with b != 0, so no
	// failure is expected here...
	if ok, v := e.Fail.IsConst(); !ok || v {
		t.Fatalf("guarded division flagged a failure: %v", e.Fail)
	}
}

// Cells live in one flat array that later writes and Restores
// overwrite in place, so every word ReadVar returns and every snapshot
// must be a copy: none may change after a write or a Restore.
func TestReadVarAndSnapshotDoNotAlias(t *testing.T) {
	p, l, sk := buildCross(t)
	bld := circuit.NewBuilder()
	e := New(bld, l, HoleInputs(bld, sk))
	seq := p.Prologue
	for _, in := range []string{"a", "b"} {
		if err := e.SetVarCells(seq, in, []circuit.Word{bld.InputW(p.W)}); err != nil {
			t.Fatal(err)
		}
	}
	e.RunSeq(p.GlobalInit, circuit.True)

	type read struct {
		got, want []circuit.Word
	}
	type snap struct {
		s    Snapshot
		want []circuit.Lit
	}
	var reads []read
	var snaps []snap
	record := func() {
		for _, v := range seq.Locals {
			ws, err := e.ReadVar(seq, v.Name)
			if err != nil {
				t.Fatal(err)
			}
			cp := make([]circuit.Word, len(ws))
			for i, w := range ws {
				cp[i] = slices.Clone(w)
			}
			reads = append(reads, read{ws, cp})
		}
		s := e.Snapshot()
		snaps = append(snaps, snap{s, slices.Clone(s.cells)})
	}
	check := func(after string) {
		t.Helper()
		for i, r := range reads {
			for j := range r.got {
				if !slices.Equal(r.got[j], r.want[j]) {
					t.Fatalf("after %s: word %d.%d returned by ReadVar changed", after, i, j)
				}
			}
		}
		for i, s := range snaps {
			if !slices.Equal(s.s.cells, s.want) {
				t.Fatalf("after %s: snapshot %d changed", after, i)
			}
		}
	}
	for i, step := range seq.Steps {
		record()
		e.RunStep(seq, step, circuit.True, FailWhenBlocked)
		check(fmt.Sprintf("step %d", i))
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	record()
	for i := range snaps {
		e.Restore(snaps[i].s)
		check(fmt.Sprintf("restore %d", i))
		if err := e.SetVarCells(seq, "a", []circuit.Word{circuit.ConstW(p.W, int64(i))}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("write after restore %d", i))
	}
	// Restoring brings back exactly what was read when the snapshot was
	// taken.
	e.Restore(snaps[0].s)
	for j, v := range seq.Locals {
		ws, err := e.ReadVar(seq, v.Name)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ws {
			if !slices.Equal(ws[k], reads[j].want[k]) {
				t.Fatalf("local %s cell %d after Restore differs from the read before step 0", v.Name, k)
			}
		}
	}
}

// sharedNamesSrc declares a local x in the fork body and in the
// epilogue. Desugaring renames each declaration apart (x_2 and x_3),
// but the two threads are clones of one body, so they share the name
// x_2 for two different cells.
const sharedNamesSrc = `
int[2] out;
int total;

harness void main() {
	fork (int i; 2) {
		int x = i + 1;
		x = x * ??;
		out[i] = x;
	}
	int x = out[0] + out[1];
	total = x;
	assert total == 9;
}
`

// Lowering resolves every use of a name to the cell of its own
// sequence: here two threads and the epilogue each read and write
// their own x, and the threads' x is one name. Executed on the same
// interleaving, the symbolic evaluator must then compute what the
// concrete interpreter does, for every value of the hole.
func TestSymMatchesInterpSharedLocalNames(t *testing.T) {
	prog, err := parser.Parse(sharedNamesSrc)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "main", desugar.Options{IntWidth: 6, LoopBound: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	l, err := state.NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	seqs := []*ir.Seq{p.Threads[0], p.Threads[1], p.Epilogue}
	xOf := func(seq *ir.Seq) string {
		for _, v := range seq.Locals {
			if strings.HasPrefix(v.Name, "x_") {
				return v.Name
			}
		}
		t.Fatalf("%s has no local x", seq.Name)
		return ""
	}
	if a, b := xOf(p.Threads[0]), xOf(p.Threads[1]); a != b {
		t.Fatalf("threads name their x %s and %s, want one name", a, b)
	}
	cellOf := map[int]string{}
	for _, seq := range seqs {
		name := xOf(seq)
		i := seq.Local(name)
		off := l.LocalOff(seq, i)
		if prev, dup := cellOf[off]; dup {
			t.Fatalf("x of %s and of %s share cell %d", seq.Name, prev, off)
		}
		cellOf[off] = seq.Name
		for _, step := range seq.Steps {
			for _, st := range step.Body {
				ast.WalkExprs(st, func(e ast.Expr) {
					if id, ok := e.(*ast.Ident); ok && id.Name == name && int(id.Slot) != i+1 {
						t.Fatalf("%s: %s resolves to slot %d, want local %d", seq.Name, name, id.Slot, i+1)
					}
				})
			}
		}
	}
	// Round-robin over the two threads, then the epilogue.
	type ev struct {
		seq  *ir.Seq
		step *ir.Step
	}
	var order []ev
	for _, s := range []*ir.Seq{p.GlobalInit, p.Prologue} {
		for _, step := range s.Steps {
			order = append(order, ev{s, step})
		}
	}
	for k := 0; k < len(p.Threads[0].Steps) || k < len(p.Threads[1].Steps); k++ {
		for _, th := range p.Threads {
			if k < len(th.Steps) {
				order = append(order, ev{th, th.Steps[k]})
			}
		}
	}
	for _, step := range p.Epilogue.Steps {
		order = append(order, ev{p.Epilogue, step})
	}
	for h := int64(0); h < 4; h++ {
		cand := desugar.Candidate{h}
		st := l.NewState()
		concFail := false
		for _, o := range order {
			c := interp.NewCtx(l, st, o.seq, cand)
			ok, f := c.EvalGuards(o.step)
			if f == nil && ok {
				f = c.ExecBody(o.step)
			}
			if f != nil {
				concFail = true
				break
			}
		}
		bld := circuit.NewBuilder()
		e := New(bld, l, HoleConsts(sk, cand))
		for _, o := range order {
			e.RunStep(o.seq, o.step, circuit.True, FailWhenBlocked)
		}
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		symConst, symFail := e.Fail.IsConst()
		if !symConst {
			t.Fatal("fail literal not constant under a constant candidate")
		}
		if symFail != concFail || symFail != (h != 3) {
			t.Fatalf("?? = %d: symbolic fail=%v concrete fail=%v, want %v", h, symFail, concFail, h != 3)
		}
		if concFail {
			continue
		}
		for off := 0; off < l.Size; off++ {
			v, ok := circuit.ConstVal(e.cell(off))
			if !ok {
				t.Fatalf("cell %d not constant", off)
			}
			if w := len(e.cell(off)); w > 1 && int32(v) != st.Cells[off] || w == 1 && (v != 0) != (st.Cells[off] != 0) {
				t.Fatalf("?? = %d: cell %d symbolic %d, concrete %d", h, off, v, st.Cells[off])
			}
		}
	}
}
