package ir

import (
	"strings"
	"testing"

	"psketch/internal/ast"
	"psketch/internal/desugar"
	"psketch/internal/parser"
	"psketch/internal/types"
)

func lowerSrc(t *testing.T, src, target string, opts desugar.Options) *Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPhasesAndThreads(t *testing.T) {
	p := lowerSrc(t, `
int g;
harness void Main() {
	g = 1;
	fork (i; 3) { g = g + 1; }
	assert g > 0;
}
`, "Main", desugar.Options{})
	if !p.Concurrent() || p.NumThreads() != 3 {
		t.Fatalf("threads: %d", p.NumThreads())
	}
	if len(p.Prologue.Steps) == 0 || len(p.Epilogue.Steps) == 0 {
		t.Fatal("prologue/epilogue empty")
	}
	if p.MainTid() != 4 {
		t.Fatalf("main tid %d", p.MainTid())
	}
	// Fork index substitution: each thread's guard/step set is distinct
	// only through the substituted constant, so tids must be 1..3.
	for i, th := range p.Threads {
		if th.Tid != i+1 {
			t.Fatalf("thread %d tid %d", i, th.Tid)
		}
	}
}

// Loop unrolling: LoopBound condition evaluations plus a termination
// assert, sharing holes across iterations.
func TestLoopUnroll(t *testing.T) {
	p := lowerSrc(t, `
int g;
harness void Main() {
	fork (i; 1) {
		while (g < 3) { g = g + ??(2); }
	}
}
`, "Main", desugar.Options{LoopBound: 4})
	seq := p.Threads[0]
	conds, bounds := 0, 0
	ids := map[int]bool{}
	for _, s := range seq.Steps {
		if strings.HasPrefix(s.Label, "while[") {
			conds++
		}
		if strings.HasPrefix(s.Label, "while bound") {
			bounds++
		}
		for _, b := range s.Body {
			ast.WalkExprs(b, func(e ast.Expr) {
				if h, ok := e.(*ast.Hole); ok {
					ids[h.ID] = true
				}
			})
		}
	}
	if conds != 4 || bounds != 1 {
		t.Fatalf("conds=%d bounds=%d", conds, bounds)
	}
	if len(ids) != 1 {
		t.Fatalf("loop iterations do not share the hole: %v", ids)
	}
}

// lock/unlock lower to the Figure 7 conditional-atomic encoding.
func TestLockLowering(t *testing.T) {
	p := lowerSrc(t, `
struct L { int v = 0; }
L a;
harness void Main() {
	a = new L();
	fork (i; 1) {
		lock(a);
		unlock(a);
	}
}
`, "Main", desugar.Options{})
	seq := p.Threads[0]
	var lockStep, unlockStep *Step
	for _, s := range seq.Steps {
		if strings.HasPrefix(s.Label, "lock(") {
			lockStep = s
		}
		if strings.HasPrefix(s.Label, "unlock(") {
			unlockStep = s
		}
	}
	if lockStep == nil || lockStep.Cond == nil {
		t.Fatal("lock step must have a blocking condition")
	}
	if unlockStep == nil || unlockStep.Cond != nil {
		t.Fatal("unlock step must not block")
	}
	// Unlock asserts ownership.
	if _, ok := unlockStep.Body[0].(*ast.AssertStmt); !ok {
		t.Fatal("unlock must assert ownership")
	}
}

// Static allocation: every `new` gets its own arena slot.
func TestAllocSites(t *testing.T) {
	p := lowerSrc(t, `
struct N { int v; }
N a;
N b;
harness void Main() {
	a = new N(1);
	b = new N(2);
	fork (i; 2) {
		N c = new N(3);
		c = c;
	}
}
`, "Main", desugar.Options{})
	// 2 prologue sites + 2 per-thread clones = 4 slots.
	if p.Arenas["N"] != 4 {
		t.Fatalf("arena %d", p.Arenas["N"])
	}
	slots := map[int]bool{}
	for _, s := range p.Sites {
		if s.Struct != "N" || slots[s.Slot] {
			t.Fatalf("bad sites %v", p.Sites)
		}
		slots[s.Slot] = true
	}
}

// Guards only mention thread-local state; shared-reading conditions get
// an evaluation step.
func TestGuardLocality(t *testing.T) {
	p := lowerSrc(t, `
int g;
harness void Main() {
	fork (i; 1) {
		int x = 0;
		if (x == 0) { x = 1; }
		if (g == 0) { x = 2; }
	}
}
`, "Main", desugar.Options{})
	seq := p.Threads[0]
	evalSteps := 0
	for _, s := range seq.Steps {
		for _, gexpr := range s.Guards {
			ast.WalkExpr(gexpr, func(e ast.Expr) {
				if id, ok := e.(*ast.Ident); ok {
					if p.Global(id.Name) >= 0 {
						t.Fatalf("guard reads global %s", id.Name)
					}
				}
			})
		}
		if strings.HasPrefix(s.Label, "if ") {
			evalSteps++
		}
	}
	if evalSteps != 1 {
		t.Fatalf("expected exactly one condition-evaluation step, got %d", evalSteps)
	}
}

func TestStaticTypeResolution(t *testing.T) {
	p := lowerSrc(t, `
struct N { N next = null; int v; }
N head;
harness void Main() {
	head = new N(1);
	fork (i; 1) {
		N x = head.next;
		x = x;
	}
}
`, "Main", desugar.Options{})
	seq := p.Threads[0]
	var fe *ast.FieldExpr
	for _, s := range seq.Steps {
		for _, b := range s.Body {
			ast.WalkExprs(b, func(e ast.Expr) {
				if f, ok := e.(*ast.FieldExpr); ok && f.Name == "next" {
					fe = f
				}
			})
		}
	}
	if fe == nil {
		t.Fatal("field access not found")
	}
	sn, err := p.StructOf(seq, fe)
	if err != nil || sn != "N" {
		t.Fatalf("StructOf = %q, %v", sn, err)
	}
	ty, err := p.StaticType(seq, fe)
	if err != nil || !ty.Equal(types.RefTo("N")) {
		t.Fatalf("StaticType = %v, %v", ty, err)
	}
}

func TestSequentialMode(t *testing.T) {
	p := lowerSrc(t, `
int spec(int x) { return x + 1; }
int f(int x) implements spec { return x + ??; }
`, "f", desugar.Options{})
	if p.Concurrent() {
		t.Fatal("sequential program misclassified")
	}
	if p.Spec == nil || p.ResultVar == "" || p.SpecResultVar == "" {
		t.Fatal("spec wiring missing")
	}
	if len(p.Inputs) != 1 || p.Inputs[0].Name != "x" {
		t.Fatalf("inputs: %v", p.Inputs)
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		// two forks
		`harness void Main() { fork (i; 1) { } fork (j; 1) { } }`,
		// effectful blocking condition
		`int g; harness void Main() { fork (i; 1) { atomic (AtomicSwap(g, 1) == 0) { } } }`,
	}
	for _, src := range cases {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := desugar.Desugar(prog, "Main", desugar.Options{})
		if err != nil {
			continue // also acceptable: rejected earlier
		}
		if _, err := Lower(sk); err == nil {
			t.Errorf("Lower(%q): expected error", src)
		}
	}
}

// Nested atomic bodies: declarations hoist to assignments; ifs stay
// nested; globals initialize via the init sequence.
func TestAtomicNormalizationAndGlobalInit(t *testing.T) {
	p := lowerSrc(t, `
struct N { N next = null; int v; }
int g = 3;
N head;
harness void Main() {
	fork (i; 1) {
		atomic {
			int t = g;
			if (t > 0) { g = t - 1; } else { g = 0; }
		}
	}
}
`, "Main", desugar.Options{})
	if len(p.GlobalInit.Steps) != 1 {
		t.Fatalf("global init steps: %d", len(p.GlobalInit.Steps))
	}
	seq := p.Threads[0]
	if len(seq.Steps) != 1 {
		t.Fatalf("atomic should be one step, got %d", len(seq.Steps))
	}
	step := seq.Steps[0]
	if _, ok := step.Body[0].(*ast.AssignStmt); !ok {
		t.Fatalf("decl not hoisted: %T", step.Body[0])
	}
	if _, ok := step.Body[1].(*ast.IfStmt); !ok {
		t.Fatalf("if not preserved: %T", step.Body[1])
	}
	found := false
	for _, v := range seq.Locals {
		if strings.HasPrefix(v.Name, "t_") || v.Name == "t" {
			found = true
		}
	}
	if !found {
		t.Fatalf("atomic-local variable not hoisted: %v", seq.Locals)
	}
}

func TestRejectWhileInsideAtomic(t *testing.T) {
	prog, err := parser.Parse(`
int g;
harness void Main() {
	fork (i; 1) {
		atomic { while (g > 0) { g = g - 1; } }
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "Main", desugar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(sk); err == nil {
		t.Fatal("expected error for while inside atomic")
	}
}

func TestStaticTypeKinds(t *testing.T) {
	p := lowerSrc(t, `
struct N { N next = null; int v; }
N head;
int[4] xs;
harness void Main() {
	head = new N(1);
	fork (i; 1) {
		int a = xs[0];
		bool b = head != null;
		a = a; b = b;
	}
}
`, "Main", desugar.Options{})
	seq := p.Threads[0]
	cases := []struct {
		src  string
		want types.Type
	}{
		{"3", types.TInt},
		{"true", types.TBool},
		{"null", types.Type{Base: types.Ref}},
		{"xs[1]", types.TInt},
		{"head.next", types.RefTo("N")},
		{"head.v + 1", types.TInt},
		{"head == null", types.TBool},
		{"!true", types.TBool},
		{"new N(1)", types.RefTo("N")},
		{"AtomicSwap(head, null)", types.RefTo("N")},
		{"CAS(head.v, 0, 1)", types.TBool},
	}
	for _, c := range cases {
		e, err := parser.ParseExprString(c.src)
		if err != nil {
			t.Fatal(err)
		}
		// Allocation sites in throwaway expressions need assignment.
		ast.WalkExpr(e, func(x ast.Expr) {
			if n, ok := x.(*ast.NewExpr); ok {
				n.Site = 0
			}
		})
		got, err := p.StaticType(seq, e)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if !got.Equal(c.want) {
			t.Fatalf("%s: got %v want %v", c.src, got, c.want)
		}
	}
	if _, err := p.StaticType(seq, &ast.Ident{Name: "nosuch"}); err == nil {
		t.Fatal("unknown variable must error")
	}
}

func TestSliceTypeAndTid(t *testing.T) {
	p := lowerSrc(t, `
bit[8] bits;
harness void Main() {
	fork (i; 2) { bits[0] = true; }
}
`, "Main", desugar.Options{})
	seq := p.Threads[1]
	e, _ := parser.ParseExprString("bits[2::4]")
	got, err := p.StaticType(seq, e)
	if err != nil || !got.Equal(types.ArrayOf(types.TBool, 4)) {
		t.Fatalf("slice type %v err %v", got, err)
	}
	tid, err := p.StaticType(seq, &ast.Ident{Name: TidVar})
	if err != nil || !tid.Equal(types.TInt) {
		t.Fatalf("tid type %v err %v", tid, err)
	}
}

// Lowering binds every name once, to the slot of the sequence that
// reaches it: each thread's clone of the fork body resolves its locals
// to its own sequence, and a node two sequences would bind differently
// is rejected rather than bound for one of them.
func TestResolveNamesPerSequence(t *testing.T) {
	src := `
struct Cell { int v; }
Cell c;
int g;
harness void Main() {
	c = new Cell(0);
	int y = 1;
	g = y;
	fork (i; 2) { int x = g; c.v = x + i; }
	g = 3;
}
`
	p := lowerSrc(t, src, "Main", desugar.Options{})
	for _, th := range p.Threads {
		for _, step := range th.Steps {
			for _, st := range step.Body {
				ast.WalkExprs(st, func(e ast.Expr) {
					switch x := e.(type) {
					case *ast.Ident:
						if i := th.Local(x.Name); i >= 0 && int(x.Slot) != i+1 {
							t.Fatalf("%s: %s has slot %d, want local %d", th.Name, x.Name, x.Slot, i+1)
						}
						if i := p.Global(x.Name); i >= 0 && th.Local(x.Name) < 0 && int(x.Slot) != -(i+1) {
							t.Fatalf("%s: %s has slot %d, want global %d", th.Name, x.Name, x.Slot, i)
						}
					case *ast.FieldExpr:
						if x.Struct <= 0 || p.Structs[x.Struct-1].Name != "Cell" || p.Structs[x.Struct-1].Info.Fields[x.Field].Name != x.Name {
							t.Fatalf("%s: .%s resolved to struct %d field %d", th.Name, x.Name, x.Struct, x.Field)
						}
					}
				})
			}
		}
	}

	lowerShared := func(from int) error {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := desugar.Desugar(prog, "Main", desugar.Options{})
		if err != nil {
			t.Fatal(err)
		}
		body := sk.Harness.Body.Stmts
		body[len(body)-1] = body[from]
		_, err = Lower(sk)
		return err
	}
	// A prologue statement over globals only binds alike in the
	// epilogue; sharing it is harmless.
	if err := lowerShared(0); err != nil {
		t.Fatalf("sharing c = new Cell(0) with the epilogue: %v", err)
	}
	// g = y reads a prologue local the epilogue does not have.
	if err := lowerShared(2); err == nil || !strings.Contains(err.Error(), "bind it differently") {
		t.Fatalf("sharing g = y with the epilogue: err = %v, want a binding conflict", err)
	}
}
