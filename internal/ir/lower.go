package ir

import (
	"fmt"

	"psketch/internal/ast"
	"psketch/internal/desugar"
	"psketch/internal/token"
	"psketch/internal/types"
)

// Lower converts a desugared sketch into linear guarded-step form.
func Lower(sk *desugar.Sketch) (*Program, error) {
	p := &Program{
		Sketch:    sk,
		W:         sk.Opts.IntWidth,
		globalIdx: map[string]int{},
		Arenas:    map[string]int{},
	}
	for _, g := range sk.Prog.Globals {
		t, err := resolveType(sk.Info, g.Type)
		if err != nil {
			return nil, err
		}
		p.globalIdx[g.Name] = len(p.Globals)
		p.Globals = append(p.Globals, Var{Name: g.Name, Type: t})
	}

	// Global initializers run as main-thread steps before the prologue.
	gi := newSeq("init", 0)
	lo := &lowerer{p: p, sk: sk, seq: gi}
	for _, g := range sk.Prog.Globals {
		if g.Init == nil {
			continue
		}
		lo.emit(&Step{
			Body:  []ast.Stmt{&ast.AssignStmt{P: g.P, LHS: &ast.Ident{P: g.P, Name: g.Name}, RHS: g.Init}},
			Pos:   g.P,
			Label: g.Name + " = " + types.ExprString(g.Init),
		})
	}
	p.GlobalInit = gi

	h := sk.Harness
	var fork *ast.ForkStmt
	forkIdx := -1
	for i, s := range h.Body.Stmts {
		if f, ok := s.(*ast.ForkStmt); ok {
			if fork != nil {
				return nil, fmt.Errorf("%s: only one fork per harness is supported", f.P)
			}
			fork = f
			forkIdx = i
		}
	}
	if fork != nil {
		n64, err := evalConstInt(fork.N)
		if err != nil {
			return nil, fmt.Errorf("fork thread count: %w", err)
		}
		n := int(n64)
		if n < 1 || n > 16 {
			return nil, fmt.Errorf("%s: fork thread count %d out of range [1,16]", fork.P, n)
		}
		mainTid := n + 1

		pro := newSeq("main", mainTid)
		if err := (&lowerer{p: p, sk: sk, seq: pro}).lowerStmts(h.Body.Stmts[:forkIdx]); err != nil {
			return nil, err
		}
		p.Prologue = pro

		for t := 0; t < n; t++ {
			body := ast.NewCloner(ast.CloneShare).Block(fork.Body)
			substIdent(body, fork.Var, &ast.IntLit{P: fork.P, Val: int64(t)})
			seq := newSeq(fmt.Sprintf("thread%d", t), t+1)
			if err := (&lowerer{p: p, sk: sk, seq: seq}).lowerStmts(body.Stmts); err != nil {
				return nil, err
			}
			p.Threads = append(p.Threads, seq)
		}

		epi := newSeq("epilogue", mainTid)
		if err := (&lowerer{p: p, sk: sk, seq: epi}).lowerStmts(h.Body.Stmts[forkIdx+1:]); err != nil {
			return nil, err
		}
		p.Epilogue = epi
		// The global-init sequence shares the main tid.
		gi.Tid = mainTid
	} else {
		// Sequential mode: the whole body is one sequence; parameters
		// are inputs.
		seq := newSeq("main", 1)
		gi.Tid = 1
		for _, prm := range h.Params {
			t, err := resolveType(sk.Info, prm.Type)
			if err != nil {
				return nil, err
			}
			p.Inputs = append(p.Inputs, Var{Name: prm.Name, Type: t})
			addLocal(seq, prm.Name, t)
		}
		if err := (&lowerer{p: p, sk: sk, seq: seq}).lowerStmts(h.Body.Stmts); err != nil {
			return nil, err
		}
		p.Prologue = seq
		p.ResultVar = sk.ResultVar

		if sk.Spec != nil {
			spec := newSeq("spec", 1)
			for _, prm := range sk.Spec.Params {
				t, err := resolveType(sk.Info, prm.Type)
				if err != nil {
					return nil, err
				}
				addLocal(spec, prm.Name, t)
			}
			if err := (&lowerer{p: p, sk: sk, seq: spec}).lowerStmts(sk.Spec.Body.Stmts); err != nil {
				return nil, err
			}
			p.Spec = spec
			p.SpecResultVar = sk.SpecResultVar
		}
	}

	if err := p.assignAllocSites(); err != nil {
		return nil, err
	}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	return p, nil
}

func newSeq(name string, tid int) *Seq {
	return &Seq{Name: name, Tid: tid, localIdx: map[string]int{}}
}

func addLocal(s *Seq, name string, t types.Type) error {
	if i, ok := s.localIdx[name]; ok {
		if !s.Locals[i].Type.Equal(t) {
			return fmt.Errorf("ir: local %s redeclared with different type", name)
		}
		return nil
	}
	s.localIdx[name] = len(s.Locals)
	s.Locals = append(s.Locals, Var{Name: name, Type: t})
	return nil
}

// substIdent replaces every use of name in b with the expression e
// (used to bind the fork index variable per thread).
func substIdent(b *ast.Block, name string, e ast.Expr) {
	rewrite := func(x *ast.Expr) {
		if id, ok := (*x).(*ast.Ident); ok && id.Name == name {
			*x = e
		}
	}
	var walkE func(x *ast.Expr)
	walkE = func(x *ast.Expr) {
		if *x == nil {
			return
		}
		rewrite(x)
		switch n := (*x).(type) {
		case *ast.Regen:
			for i := range n.Choices {
				walkE(&n.Choices[i])
			}
		case *ast.Unary:
			walkE(&n.X)
		case *ast.Binary:
			walkE(&n.X)
			walkE(&n.Y)
		case *ast.FieldExpr:
			walkE(&n.X)
		case *ast.IndexExpr:
			walkE(&n.X)
			walkE(&n.Index)
		case *ast.SliceExpr:
			walkE(&n.X)
			walkE(&n.Start)
		case *ast.CallExpr:
			for i := range n.Args {
				walkE(&n.Args[i])
			}
		case *ast.CastExpr:
			walkE(&n.X)
		case *ast.NewExpr:
			for i := range n.Args {
				walkE(&n.Args[i])
			}
		}
	}
	var walkS func(s ast.Stmt)
	walkS = func(s ast.Stmt) {
		switch x := s.(type) {
		case nil:
		case *ast.Block:
			for _, st := range x.Stmts {
				walkS(st)
			}
		case *ast.DeclStmt:
			walkE(&x.Init)
		case *ast.AssignStmt:
			walkE(&x.LHS)
			walkE(&x.RHS)
		case *ast.IfStmt:
			walkE(&x.Cond)
			walkS(x.Then)
			walkS(x.Else)
		case *ast.WhileStmt:
			walkE(&x.Cond)
			walkS(x.Body)
		case *ast.ReturnStmt:
			walkE(&x.Val)
		case *ast.AssertStmt:
			walkE(&x.Cond)
		case *ast.AtomicStmt:
			if x.Cond != nil {
				walkE(&x.Cond)
			}
			walkS(x.Body)
		case *ast.LockStmt:
			walkE(&x.Target)
		case *ast.ExprStmt:
			walkE(&x.X)
		}
	}
	walkS(b)
}

// resolveType mirrors the checker's type resolution for lowering.
func resolveType(info *types.Info, te *ast.TypeExpr) (types.Type, error) {
	if te == nil {
		return types.TVoid, nil
	}
	var base types.Type
	switch te.Name {
	case "int":
		base = types.TInt
	case "bool", "bit":
		base = types.TBool
	case "void":
		return types.TVoid, nil
	default:
		if info.Structs[te.Name] == nil {
			return types.Type{}, fmt.Errorf("%s: unknown type %s", te.P, te.Name)
		}
		base = types.RefTo(te.Name)
	}
	if te.ArrayLen > 0 {
		return types.ArrayOf(base, te.ArrayLen), nil
	}
	return base, nil
}

// assignAllocSites numbers every `new` occurrence and sizes the arenas.
// Some of the walked nodes belong to the sketch's shared AST (prologue
// and epilogue statements are not cloned), so sites are reset first:
// lowering the same sketch twice must yield the same program.
func (p *Program) assignAllocSites() error {
	seqs := p.Seqs()
	for _, s := range seqs {
		for _, st := range s.Steps {
			for _, b := range st.Body {
				ast.WalkExprs(b, func(e ast.Expr) {
					if n, ok := e.(*ast.NewExpr); ok {
						n.Site = -1
					}
				})
			}
		}
	}
	for _, s := range seqs {
		for _, st := range s.Steps {
			for _, b := range st.Body {
				ast.WalkExprs(b, func(e ast.Expr) {
					if n, ok := e.(*ast.NewExpr); ok && n.Site == -1 {
						p.Arenas[n.Type]++
						n.Site = len(p.Sites)
						p.Sites = append(p.Sites, AllocSite{Struct: n.Type, Slot: p.Arenas[n.Type]})
					}
				})
			}
			if st.Cond != nil {
				var bad bool
				ast.WalkExpr(st.Cond, func(e ast.Expr) {
					if _, ok := e.(*ast.NewExpr); ok {
						bad = true
					}
				})
				if bad {
					return fmt.Errorf("%s: allocation inside a blocking condition is not supported", st.Pos)
				}
			}
		}
	}
	// Ensure every struct has an arena entry (possibly empty).
	for name := range p.Sketch.Info.Structs {
		if _, ok := p.Arenas[name]; !ok {
			p.Arenas[name] = 0
		}
	}
	return nil
}

// ------------------------------------------------------------- lowerer

type lowerer struct {
	p    *Program
	sk   *desugar.Sketch
	seq  *Seq
	g    []ast.Expr // current guard conjunction
	tmpN int
}

func (lo *lowerer) isLocal(name string) bool {
	if lo.seq.Local(name) >= 0 {
		return true
	}
	// A name that is neither a global nor a known local is a
	// forward-declared local (declarations are hoisted as they are
	// encountered, and lowering is in program order, so this only
	// happens for synthesized names being introduced right now).
	return lo.p.Global(name) < 0
}

func (lo *lowerer) fresh(prefix string) string {
	lo.tmpN++
	return fmt.Sprintf("%s%d_%s", prefix, lo.tmpN, lo.seq.Name)
}

func (lo *lowerer) guardsCopy() []ast.Expr {
	g := make([]ast.Expr, len(lo.g))
	copy(g, lo.g)
	return g
}

func (lo *lowerer) emit(s *Step) {
	if s.Guards == nil {
		s.Guards = lo.guardsCopy()
	}
	cls := class{}
	for _, b := range s.Body {
		c := lo.classifyStmt(b)
		cls.shared = cls.shared || c.shared
		cls.effects = cls.effects || c.effects
	}
	s.Local = !cls.shared && s.Cond == nil
	lo.seq.Steps = append(lo.seq.Steps, s)
}

func (lo *lowerer) lowerStmts(stmts []ast.Stmt) error {
	for _, s := range stmts {
		if err := lo.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func not(e ast.Expr) ast.Expr {
	return &ast.Unary{P: e.Pos(), Op: token.NOT, X: e}
}

func (lo *lowerer) lowerStmt(s ast.Stmt) error {
	switch x := s.(type) {
	case *ast.Block:
		return lo.lowerStmts(x.Stmts)
	case *ast.DeclStmt:
		t, err := resolveType(lo.sk.Info, x.Type)
		if err != nil {
			return err
		}
		if err := addLocal(lo.seq, x.Name, t); err != nil {
			return err
		}
		rhs := x.Init
		if rhs == nil {
			rhs = zeroExpr(t, x.P)
		}
		lo.emit(&Step{
			Body:  []ast.Stmt{&ast.AssignStmt{P: x.P, LHS: &ast.Ident{P: x.P, Name: x.Name}, RHS: rhs}},
			Pos:   x.P,
			Label: x.Name + " = " + types.ExprString(rhs),
		})
		return nil
	case *ast.AssignStmt:
		lo.emit(&Step{
			Body:  []ast.Stmt{x},
			Pos:   x.P,
			Label: types.ExprString(x.LHS) + " = " + types.ExprString(x.RHS),
		})
		return nil
	case *ast.AssertStmt:
		lo.emit(&Step{Body: []ast.Stmt{x}, Pos: x.P, Label: "assert " + types.ExprString(x.Cond)})
		return nil
	case *ast.ExprStmt:
		lo.emit(&Step{Body: []ast.Stmt{x}, Pos: x.P, Label: types.ExprString(x.X)})
		return nil
	case *ast.IfStmt:
		return lo.lowerIf(x)
	case *ast.WhileStmt:
		return lo.lowerWhile(x)
	case *ast.AtomicStmt:
		return lo.lowerAtomic(x)
	case *ast.LockStmt:
		return lo.lowerLock(x)
	case *ast.ReturnStmt:
		return fmt.Errorf("%s: return is not allowed here (thread bodies and harnesses do not return)", x.P)
	case *ast.ForkStmt:
		return fmt.Errorf("%s: fork must be a top-level statement of the harness", x.P)
	}
	return fmt.Errorf("ir: unhandled statement %T", s)
}

func (lo *lowerer) lowerIf(x *ast.IfStmt) error {
	cls := lo.classify(x.Cond)
	var condT, condF ast.Expr
	if !cls.shared && !cls.effects {
		condT, condF = x.Cond, not(x.Cond)
	} else {
		t := lo.fresh("_c")
		if err := addLocal(lo.seq, t, types.TBool); err != nil {
			return err
		}
		tv := &ast.Ident{P: x.P, Name: t}
		lo.emit(&Step{
			Body:  []ast.Stmt{&ast.AssignStmt{P: x.P, LHS: tv, RHS: x.Cond}},
			Pos:   x.P,
			Label: "if " + types.ExprString(x.Cond),
		})
		condT, condF = tv, not(tv)
	}
	lo.g = append(lo.g, condT)
	if err := lo.lowerStmts(x.Then.Stmts); err != nil {
		return err
	}
	lo.g = lo.g[:len(lo.g)-1]
	if x.Else != nil {
		lo.g = append(lo.g, condF)
		if err := lo.lowerStmt(x.Else); err != nil {
			return err
		}
		lo.g = lo.g[:len(lo.g)-1]
	}
	return nil
}

func (lo *lowerer) lowerWhile(x *ast.WhileStmt) error {
	bound := lo.sk.Opts.LoopBound
	for i := 0; i < bound; i++ {
		cl := ast.NewCloner(ast.CloneShare)
		cond := cl.Expr(x.Cond)
		t := lo.fresh("_w")
		if err := addLocal(lo.seq, t, types.TBool); err != nil {
			return err
		}
		tv := &ast.Ident{P: x.P, Name: t}
		lo.emit(&Step{
			Body:  []ast.Stmt{&ast.AssignStmt{P: x.P, LHS: tv, RHS: cond}},
			Pos:   x.P,
			Label: fmt.Sprintf("while[%d] %s", i, types.ExprString(x.Cond)),
		})
		lo.g = append(lo.g, tv)
		body := cl.Block(x.Body)
		if err := lo.lowerStmts(body.Stmts); err != nil {
			return err
		}
		// Keep tv on the guard stack: iteration i+1 only runs if every
		// previous condition evaluation was true.
	}
	// Termination bound (§6): after LoopBound iterations the condition
	// must be false; evaluating it performs its side effects exactly as
	// a real (B+1)-th loop test would.
	cl := ast.NewCloner(ast.CloneShare)
	cond := cl.Expr(x.Cond)
	t := lo.fresh("_w")
	if err := addLocal(lo.seq, t, types.TBool); err != nil {
		return err
	}
	tv := &ast.Ident{P: x.P, Name: t}
	lo.emit(&Step{
		Body: []ast.Stmt{
			&ast.AssignStmt{P: x.P, LHS: tv, RHS: cond},
			&ast.AssertStmt{P: x.P, Cond: not(tv)},
		},
		Pos:   x.P,
		Label: fmt.Sprintf("while bound %d", bound),
	})
	// Pop the B condition guards.
	lo.g = lo.g[:len(lo.g)-bound]
	return nil
}

func (lo *lowerer) lowerAtomic(x *ast.AtomicStmt) error {
	if x.Cond != nil && lo.classify(x.Cond).effects {
		return fmt.Errorf("%s: blocking condition must be side-effect free", x.P)
	}
	body, err := lo.normalizeAtomicBody(x.Body.Stmts)
	if err != nil {
		return err
	}
	lbl := "atomic"
	if x.Cond != nil {
		lbl = "atomic (" + types.ExprString(x.Cond) + ")"
	}
	lo.emit(&Step{Cond: x.Cond, Body: body, Pos: x.P, Label: lbl})
	return nil
}

// normalizeAtomicBody hoists declarations out of an atomic block's body
// (turning them into assignments) and validates that only simple
// statements occur inside.
func (lo *lowerer) normalizeAtomicBody(stmts []ast.Stmt) ([]ast.Stmt, error) {
	var out []ast.Stmt
	for _, s := range stmts {
		switch x := s.(type) {
		case *ast.DeclStmt:
			t, err := resolveType(lo.sk.Info, x.Type)
			if err != nil {
				return nil, err
			}
			if err := addLocal(lo.seq, x.Name, t); err != nil {
				return nil, err
			}
			rhs := x.Init
			if rhs == nil {
				rhs = zeroExpr(t, x.P)
			}
			out = append(out, &ast.AssignStmt{P: x.P, LHS: &ast.Ident{P: x.P, Name: x.Name}, RHS: rhs})
		case *ast.AssignStmt, *ast.AssertStmt, *ast.ExprStmt:
			out = append(out, s)
		case *ast.IfStmt:
			thenB, err := lo.normalizeAtomicBody(x.Then.Stmts)
			if err != nil {
				return nil, err
			}
			n := &ast.IfStmt{P: x.P, Cond: x.Cond, Then: &ast.Block{P: x.P, Stmts: thenB}}
			if x.Else != nil {
				elseB, err := lo.normalizeAtomicBody([]ast.Stmt{x.Else})
				if err != nil {
					return nil, err
				}
				n.Else = &ast.Block{P: x.P, Stmts: elseB}
			}
			out = append(out, n)
		case *ast.Block:
			inner, err := lo.normalizeAtomicBody(x.Stmts)
			if err != nil {
				return nil, err
			}
			out = append(out, inner...)
		default:
			return nil, fmt.Errorf("%s: %T is not allowed inside an atomic section", s.Pos(), s)
		}
	}
	return out, nil
}

// lowerLock emits the Figure 7 encoding: lock(x) is a conditional
// atomic that waits for x._lock == 0 and claims it; unlock(x) asserts
// ownership and releases.
func (lo *lowerer) lowerLock(x *ast.LockStmt) error {
	lockF := func() ast.Expr {
		return &ast.FieldExpr{P: x.P, X: x.Target, Name: types.LockField}
	}
	tid := &ast.Ident{P: x.P, Name: TidVar}
	if x.Unlock {
		lo.emit(&Step{
			Body: []ast.Stmt{
				&ast.AssertStmt{P: x.P, Cond: &ast.Binary{P: x.P, Op: token.EQ, X: lockF(), Y: tid}},
				&ast.AssignStmt{P: x.P, LHS: lockF(), RHS: &ast.IntLit{P: x.P, Val: 0}},
			},
			Pos:   x.P,
			Label: "unlock(" + types.ExprString(x.Target) + ")",
		})
		return nil
	}
	lo.emit(&Step{
		Cond: &ast.Binary{P: x.P, Op: token.EQ, X: lockF(), Y: &ast.IntLit{P: x.P, Val: 0}},
		Body: []ast.Stmt{
			&ast.AssignStmt{P: x.P, LHS: lockF(), RHS: tid},
		},
		Pos:   x.P,
		Label: "lock(" + types.ExprString(x.Target) + ")",
	})
	return nil
}

// zeroExpr builds the zero value of a type (arrays broadcast scalars).
func zeroExpr(t types.Type, pos token.Pos) ast.Expr {
	switch t.Base {
	case types.Bool:
		return &ast.BoolLit{P: pos, Val: false}
	case types.Ref:
		return &ast.NullLit{P: pos}
	default:
		return &ast.IntLit{P: pos, Val: 0}
	}
}
