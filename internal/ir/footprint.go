package ir

import (
	"psketch/internal/ast"
	"psketch/internal/desugar"
	"psketch/internal/token"
	"psketch/internal/types"
)

// This file is the static footprint analysis behind the model checker's
// partial-order reduction: for every thread step it computes an
// over-approximation of the shared cells (globals and heap arenas) the
// step may read and write under a fixed candidate. Two transitions with
// disjoint footprints commute — executing them in either order reaches
// the same state and neither can enable, disable, or change the effect
// of the other — which is exactly the independence relation persistent
// sets and sleep sets need.
//
// Precision levers (all soundly widened when they do not apply):
//
//   - constant folding over literals, hole values, resolved generator
//     choices, __tid, and arithmetic narrows array indices to single
//     cells (fork indices are substituted as literals per thread, so
//     `results[k]` with a constant k becomes one exclusive cell);
//   - dominance-proven constant locals: a local assigned exactly once,
//     from a constant, before every read, under guards implied by each
//     reader's guards, is folded like a literal (this resolves inlined
//     function parameters such as a thread-id argument);
//   - static allocation sites: every `new` writes a fixed arena slot,
//     and a ref local proven constant resolves field accesses to that
//     exact slot;
//   - unknown array indices widen to the whole array, unknown field
//     receivers widen to the field's column across the arena, and any
//     construct outside the analysed fragment widens to everything.

// Loc is one symbolic set of shared cells. Exactly one shape applies:
//
//   - Global >= 0: cells [Lo,Hi) of Program.Globals[Global];
//   - Struct != "", Field != "": that field of Struct — Slot > 0 is the
//     exact 1-based arena slot, Slot == 0 every slot (widened);
//   - Struct != "", Field == "": every field of arena slot Slot (an
//     allocation site).
type Loc struct {
	Global        int
	Lo, Hi        int
	Struct, Field string
	Slot          int
}

// Footprint over-approximates the shared cells one step touches. All
// marks a step widened to "may touch anything".
type Footprint struct {
	Reads, Writes []Loc
	All           bool
}

// Footprints computes the footprint of every thread step of p under the
// candidate (generator choices select which access expressions run, and
// hole values fold into indices). Result is indexed [thread][step].
func Footprints(p *Program, cand desugar.Candidate) [][]Footprint {
	out := make([][]Footprint, len(p.Threads))
	for t, seq := range p.Threads {
		a := &fpAnalyzer{p: p, seq: seq, cand: cand}
		a.findConstLocals()
		fps := make([]Footprint, len(seq.Steps))
		for i, s := range seq.Steps {
			fps[i] = a.step(s)
		}
		out[t] = fps
	}
	return out
}

type fpAnalyzer struct {
	p    *Program
	seq  *Seq
	cand desugar.Candidate
	// consts[i] is local i's value when known[i] (dominance-proven
	// constant locals).
	consts []int64
	known  []bool

	fp *Footprint // footprint under construction
}

// ------------------------------------------------------ constant locals

// occurrence locates one use or definition of a local in the sequence.
type occurrence struct {
	step, pos int // step index; top-level body position (-1: guard/cond)
}

type localInfo struct {
	assigns  int
	def      occurrence
	rhs      ast.Expr
	impure   bool // nested/builtin/array writes: never constant
	readsAny bool
	reads    []occurrence
}

// findConstLocals proves locals constant: assigned exactly once by a
// top-level body assignment whose value folds, with every read
// lexically after the definition and guarded at least as strongly
// (the defining step's guard conjunction is an identity-prefix of the
// reader's, so a read implies the definition ran).
func (a *fpAnalyzer) findConstLocals() {
	n := len(a.seq.Locals)
	a.consts, a.known = make([]int64, n), make([]bool, n)
	info := make([]localInfo, n)
	// at returns the record of the local id names, or nil for any other
	// identifier.
	at := func(id *ast.Ident) *localInfo {
		if id.Slot <= 0 {
			return nil
		}
		return &info[id.Slot-1]
	}

	noteReads := func(e ast.Expr, occ occurrence) {
		ast.WalkExpr(e, func(x ast.Expr) {
			if id, ok := x.(*ast.Ident); ok && id.Slot > 0 {
				li := at(id)
				li.reads = append(li.reads, occ)
			}
		})
	}
	var noteStmt func(s ast.Stmt, occ occurrence, top bool)
	noteStmt = func(s ast.Stmt, occ occurrence, top bool) {
		switch x := s.(type) {
		case *ast.Block:
			for _, st := range x.Stmts {
				noteStmt(st, occ, false)
			}
		case *ast.AssignStmt:
			lhs := a.resolveRegen(x.LHS)
			if id, ok := lhs.(*ast.Ident); ok && id.Slot > 0 {
				li := at(id)
				li.assigns++
				if top && li.assigns == 1 {
					li.def, li.rhs = occ, x.RHS
				} else {
					li.impure = true
				}
			} else {
				noteReads(x.LHS, occ)
			}
			noteReads(x.RHS, occ)
		case *ast.AssertStmt:
			noteReads(x.Cond, occ)
		case *ast.ExprStmt:
			noteReads(x.X, occ)
		case *ast.IfStmt:
			noteReads(x.Cond, occ)
			noteStmt(x.Then, occ, false)
			if x.Else != nil {
				noteStmt(x.Else, occ, false)
			}
		}
	}
	// Builtin first arguments are written in place; a local used there is
	// not constant. Writes through index/slice l-values read the index
	// but never redefine the (array) local as a scalar constant.
	markBuiltinWrites := func(e ast.Expr, _ occurrence) {
		ast.WalkExpr(e, func(x ast.Expr) {
			if c, ok := x.(*ast.CallExpr); ok && len(c.Args) > 0 {
				if id, ok := a.resolveRegen(c.Args[0]).(*ast.Ident); ok && id.Slot > 0 {
					at(id).impure = true
				}
			}
		})
	}

	for si, s := range a.seq.Steps {
		gocc := occurrence{si, -1}
		for _, g := range s.Guards {
			noteReads(g, gocc)
		}
		if s.Cond != nil {
			noteReads(s.Cond, gocc)
			markBuiltinWrites(s.Cond, gocc)
		}
		for bi, st := range s.Body {
			occ := occurrence{si, bi}
			noteStmt(st, occ, true)
			if as, ok := st.(*ast.AssignStmt); ok {
				markBuiltinWrites(as.RHS, occ)
			} else {
				var walkAll func(ast.Stmt)
				walkAll = func(s2 ast.Stmt) {
					switch x := s2.(type) {
					case *ast.Block:
						for _, st2 := range x.Stmts {
							walkAll(st2)
						}
					case *ast.IfStmt:
						markBuiltinWrites(x.Cond, occ)
						walkAll(x.Then)
						if x.Else != nil {
							walkAll(x.Else)
						}
					case *ast.AssertStmt:
						markBuiltinWrites(x.Cond, occ)
					case *ast.ExprStmt:
						markBuiltinWrites(x.X, occ)
					case *ast.AssignStmt:
						markBuiltinWrites(x.RHS, occ)
					}
				}
				walkAll(st)
			}
		}
	}

	// Fold in step order so constant chains (x = 2; y = x + 1) resolve.
	type cdef struct {
		local int
		li    *localInfo
	}
	var defs []cdef
	for i := range info {
		if li := &info[i]; li.assigns == 1 && !li.impure {
			defs = append(defs, cdef{i, li})
		}
	}
	// Deterministic order: by definition position.
	for i := 0; i < len(defs); i++ {
		for j := i + 1; j < len(defs); j++ {
			a, b := defs[i].li.def, defs[j].li.def
			if b.step < a.step || (b.step == a.step && b.pos < a.pos) {
				defs[i], defs[j] = defs[j], defs[i]
			}
		}
	}
	for _, d := range defs {
		v, ok := a.foldConst(d.li.rhs)
		if !ok || !a.readsDominated(d.li) {
			continue
		}
		a.consts[d.local], a.known[d.local] = v, true
	}
}

// constOf returns the proven constant value of the local id names.
func (a *fpAnalyzer) constOf(id *ast.Ident) (int64, bool) {
	if id.Slot <= 0 || !a.known[id.Slot-1] {
		return 0, false
	}
	return a.consts[id.Slot-1], true
}

// readsDominated checks every read happens after the definition and
// under guards that include the definition's (identity prefix).
func (a *fpAnalyzer) readsDominated(li *localInfo) bool {
	defG := a.seq.Steps[li.def.step].Guards
	for _, r := range li.reads {
		if r.step < li.def.step {
			return false
		}
		if r.step == li.def.step && r.pos <= li.def.pos {
			return false
		}
		if r.step != li.def.step && !guardPrefix(defG, a.seq.Steps[r.step].Guards) {
			return false
		}
	}
	return true
}

// guardPrefix reports whether pre is an identity-prefix of g (guard
// expressions are shared pointers down the lowering's guard stack).
func guardPrefix(pre, g []ast.Expr) bool {
	if len(pre) > len(g) {
		return false
	}
	for i, e := range pre {
		if g[i] != e {
			return false
		}
	}
	return true
}

// -------------------------------------------------------- constant fold

func (a *fpAnalyzer) resolveRegen(e ast.Expr) ast.Expr {
	for {
		r, ok := e.(*ast.Regen)
		if !ok {
			return e
		}
		meta := a.p.Sketch.Holes[r.ID]
		e = r.Choices[a.cand.Choice(r.ID, meta.Choices)]
	}
}

// wrapW truncates to the program's W-bit two's complement, mirroring the
// concrete interpreter.
func (a *fpAnalyzer) wrapW(v int64) int64 {
	w := uint(a.p.W)
	m := int64(1) << w
	v &= m - 1
	if v >= m>>1 {
		v -= m
	}
	return v
}

// foldConst evaluates an expression to a compile-time constant under the
// candidate (hole values, generator choices, __tid, proven-constant
// locals). Allocation folds to its static arena slot. The result
// mirrors the interpreter bit-for-bit (W-bit wrapping).
func (a *fpAnalyzer) foldConst(e ast.Expr) (int64, bool) {
	switch x := a.resolveRegen(e).(type) {
	case *ast.IntLit:
		return a.wrapW(x.Val), true
	case *ast.BoolLit:
		if x.Val {
			return 1, true
		}
		return 0, true
	case *ast.NullLit:
		return 0, true
	case *ast.Ident:
		if x.Name == TidVar {
			return int64(a.seq.Tid), true
		}
		return a.constOf(x)
	case *ast.Hole:
		meta := a.p.Sketch.Holes[x.ID]
		v := a.cand.Value(x.ID)
		if meta.Kind == desugar.HoleBool {
			if v != 0 {
				return 1, true
			}
			return 0, true
		}
		return a.wrapW(v), true
	case *ast.NewExpr:
		if x.Site >= 0 && x.Site < len(a.p.Sites) {
			return int64(a.p.Sites[x.Site].Slot), true
		}
		return 0, false
	case *ast.Unary:
		v, ok := a.foldConst(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case token.NOT:
			if v == 0 {
				return 1, true
			}
			return 0, true
		case token.SUB:
			return a.wrapW(-v), true
		}
		return 0, false
	case *ast.Binary:
		l, ok := a.foldConst(x.X)
		if !ok {
			return 0, false
		}
		r, ok := a.foldConst(x.Y)
		if !ok {
			return 0, false
		}
		b := func(c bool) (int64, bool) {
			if c {
				return 1, true
			}
			return 0, true
		}
		switch x.Op {
		case token.ADD:
			return a.wrapW(l + r), true
		case token.SUB:
			return a.wrapW(l - r), true
		case token.MUL:
			return a.wrapW(l * r), true
		case token.QUO:
			if r == 0 {
				return 0, false
			}
			return a.wrapW(l / r), true
		case token.REM:
			if r == 0 {
				return 0, false
			}
			return a.wrapW(l % r), true
		case token.EQ:
			return b(l == r)
		case token.NEQ:
			return b(l != r)
		case token.LT:
			return b(l < r)
		case token.LEQ:
			return b(l <= r)
		case token.GT:
			return b(l > r)
		case token.GEQ:
			return b(l >= r)
		case token.LAND:
			return b(l != 0 && r != 0)
		case token.LOR:
			return b(l != 0 || r != 0)
		}
		return 0, false
	}
	return 0, false
}

// ---------------------------------------------------- footprint walking

func (a *fpAnalyzer) step(s *Step) Footprint {
	fp := Footprint{}
	a.fp = &fp
	for _, g := range s.Guards {
		a.reads(g)
	}
	if s.Cond != nil {
		a.reads(s.Cond)
	}
	for _, st := range s.Body {
		a.stmt(st)
	}
	a.fp = nil
	if fp.All {
		return Footprint{All: true}
	}
	return fp
}

func (a *fpAnalyzer) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.Block:
		for _, st := range x.Stmts {
			a.stmt(st)
		}
	case *ast.AssignStmt:
		a.write(x.LHS)
		a.reads(x.RHS)
	case *ast.AssertStmt:
		a.reads(x.Cond)
	case *ast.ExprStmt:
		a.reads(x.X)
	case *ast.IfStmt:
		a.reads(x.Cond)
		a.stmt(x.Then)
		if x.Else != nil {
			a.stmt(x.Else)
		}
	default:
		a.fp.All = true
	}
}

// write records the cells the l-value designates as written (and the
// reads performed while resolving it).
func (a *fpAnalyzer) write(e ast.Expr) {
	locs, ok := a.target(e)
	if !ok {
		a.fp.All = true
		return
	}
	a.fp.Writes = append(a.fp.Writes, locs...)
}

// target resolves an l-value to its shared cells (nil for thread-local
// storage), recording the reads its evaluation performs. ok=false means
// the shape is outside the analysed fragment (caller widens).
func (a *fpAnalyzer) target(e ast.Expr) ([]Loc, bool) {
	switch x := a.resolveRegen(e).(type) {
	case *ast.Ident:
		if x.Slot > 0 || x.Name == TidVar {
			return nil, true
		}
		if x.Slot < 0 {
			i := int(-x.Slot - 1)
			return []Loc{{Global: i, Lo: 0, Hi: cellCount(a.p.Globals[i].Type)}}, true
		}
		return nil, false
	case *ast.FieldExpr:
		a.reads(x.X)
		if x.Struct == 0 {
			return nil, false
		}
		st := &a.p.Structs[x.Struct-1]
		sn := st.Name
		if slot, ok := a.foldConst(x.X); ok {
			if slot <= 0 || int(slot) > st.Arena {
				// Null (faults before any heap access) or impossible.
				return nil, true
			}
			return []Loc{{Global: -1, Struct: sn, Field: x.Name, Slot: int(slot)}}, true
		}
		return []Loc{{Global: -1, Struct: sn, Field: x.Name}}, true
	case *ast.IndexExpr:
		a.reads(x.Index)
		base, ok := a.target(x.X)
		if !ok {
			return nil, false
		}
		if base == nil {
			return nil, true // local array
		}
		if len(base) != 1 || base[0].Global < 0 {
			return nil, false
		}
		b := base[0]
		if idx, ok := a.foldConst(x.Index); ok {
			if idx < int64(b.Lo) || idx >= int64(b.Hi) {
				return nil, true // out of bounds: faults, no access
			}
			return []Loc{{Global: b.Global, Lo: int(idx), Hi: int(idx) + 1}}, true
		}
		return base, true
	case *ast.SliceExpr:
		a.reads(x.Start)
		base, ok := a.target(x.X)
		if !ok {
			return nil, false
		}
		if base == nil {
			return nil, true
		}
		if len(base) != 1 || base[0].Global < 0 {
			return nil, false
		}
		b := base[0]
		if st, ok := a.foldConst(x.Start); ok && st >= int64(b.Lo) && st+int64(x.Len) <= int64(b.Hi) {
			return []Loc{{Global: b.Global, Lo: int(st), Hi: int(st) + x.Len}}, true
		}
		return base, true
	}
	return nil, false
}

// reads records every shared cell the expression may read (builtins also
// write their first argument; allocation writes its site's slot).
func (a *fpAnalyzer) reads(e ast.Expr) {
	switch x := a.resolveRegen(e).(type) {
	case nil:
	case *ast.IntLit, *ast.BoolLit, *ast.NullLit, *ast.BitsLit, *ast.Hole:
	case *ast.Ident:
		locs, ok := a.target(x)
		if !ok {
			a.fp.All = true
			return
		}
		a.fp.Reads = append(a.fp.Reads, locs...)
	case *ast.FieldExpr, *ast.IndexExpr, *ast.SliceExpr:
		locs, ok := a.target(x)
		if !ok {
			a.fp.All = true
			return
		}
		a.fp.Reads = append(a.fp.Reads, locs...)
	case *ast.Unary:
		a.reads(x.X)
	case *ast.Binary:
		a.reads(x.X)
		a.reads(x.Y)
	case *ast.CastExpr:
		a.reads(x.X)
	case *ast.CallExpr:
		// Atomic builtins read and write their first argument in place.
		if len(x.Args) > 0 {
			a.reads(x.Args[0])
			a.write(x.Args[0])
			for _, arg := range x.Args[1:] {
				a.reads(arg)
			}
			return
		}
		a.fp.All = true
	case *ast.NewExpr:
		if x.Site < 0 || x.Site >= len(a.p.Sites) {
			a.fp.All = true
			return
		}
		site := a.p.Sites[x.Site]
		a.fp.Writes = append(a.fp.Writes, Loc{Global: -1, Struct: site.Struct, Slot: site.Slot})
		for _, arg := range x.Args {
			a.reads(arg)
		}
		if si := a.p.Sketch.Info.Structs[x.Type]; si != nil {
			for _, f := range si.Fields {
				if f.Default != nil {
					a.reads(f.Default)
				}
			}
		}
	default:
		a.fp.All = true
	}
}

func cellCount(t types.Type) int {
	if t.IsArray() {
		return t.Len
	}
	return 1
}
