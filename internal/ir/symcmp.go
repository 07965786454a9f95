package ir

import (
	"psketch/internal/ast"
	"psketch/internal/types"
)

// symCmp compares two thread sequences in lockstep, folding each side
// with its own analyzer, and records the generator moves the divergences
// induce into acc. Divergence is only ever accepted at the positions
// documented in symmetry.go; any other mismatch fails the comparison
// (and with it the class). For the epilogue self-matching pass a and b
// are the same analyzer and only single steps are compared.
type symCmp struct {
	p    *Program
	a, b *fpAnalyzer
	acc  *symAcc
}

func (c *symCmp) seqs() bool {
	sa, sb := c.a.seq, c.b.seq
	if len(sa.Steps) != len(sb.Steps) || len(sa.Locals) != len(sb.Locals) {
		return false
	}
	for i := range sa.Locals {
		if sa.Locals[i].Type != sb.Locals[i].Type {
			return false
		}
	}
	for i := range sa.Steps {
		if !c.step(sa.Steps[i], sb.Steps[i]) {
			symDebugf("sym: step %d (%q vs %q) diverges", i, sa.Steps[i].Label, sb.Steps[i].Label)
			return false
		}
	}
	return true
}

func (c *symCmp) step(sa, sb *Step) bool {
	if len(sa.Guards) != len(sb.Guards) || len(sa.Body) != len(sb.Body) {
		return false
	}
	for i := range sa.Guards {
		if !c.expr(sa.Guards[i], sb.Guards[i]) {
			return false
		}
	}
	if (sa.Cond == nil) != (sb.Cond == nil) {
		return false
	}
	if sa.Cond != nil && !c.expr(sa.Cond, sb.Cond) {
		return false
	}
	for i := range sa.Body {
		if !c.stmt(sa.Body[i], sb.Body[i], true) {
			return false
		}
	}
	return true
}

func (c *symCmp) stmt(sa, sb ast.Stmt, top bool) bool {
	switch xa := sa.(type) {
	case *ast.Block:
		xb, ok := sb.(*ast.Block)
		if !ok || len(xa.Stmts) != len(xb.Stmts) {
			return false
		}
		for i := range xa.Stmts {
			if !c.stmt(xa.Stmts[i], xb.Stmts[i], false) {
				return false
			}
		}
		return true
	case *ast.AssignStmt:
		xb, ok := sb.(*ast.AssignStmt)
		if !ok {
			return false
		}
		return c.assign(xa, xb, top)
	case *ast.AssertStmt:
		xb, ok := sb.(*ast.AssertStmt)
		return ok && c.expr(xa.Cond, xb.Cond)
	case *ast.ExprStmt:
		xb, ok := sb.(*ast.ExprStmt)
		return ok && c.expr(xa.X, xb.X)
	case *ast.IfStmt:
		xb, ok := sb.(*ast.IfStmt)
		if !ok {
			return false
		}
		if !c.expr(xa.Cond, xb.Cond) {
			return false
		}
		if !c.stmt(xa.Then, xb.Then, false) {
			return false
		}
		if (xa.Else == nil) != (xb.Else == nil) {
			return false
		}
		return xa.Else == nil || c.stmt(xa.Else, xb.Else, false)
	}
	return false
}

// assign compares an assignment. Writes to locals compare the target by
// position only (the value correspondence lives in the RHS); this is
// also the one place where folded values may legitimately diverge: the
// defining assignment of a proven-constant scalar local (the fork index
// and its derivatives), which the block rotation rewrites. symmetry.go's
// collectForkLocals re-derives and further validates those defs.
func (c *symCmp) assign(xa, xb *ast.AssignStmt, top bool) bool {
	lhsA := c.a.resolveRegen(xa.LHS)
	lhsB := c.b.resolveRegen(xb.LHS)
	ida, isIdA := lhsA.(*ast.Ident)
	idb, isIdB := lhsB.(*ast.Ident)
	if isIdA && isIdB {
		la, lb := localOf(ida), localOf(idb)
		if (la >= 0) != (lb >= 0) {
			return false
		}
		if la >= 0 {
			if la != lb {
				return false
			}
			if c.expr(xa.RHS, xb.RHS) {
				return true
			}
			if !top {
				return false
			}
			t := c.a.seq.Locals[la].Type
			if t.Base == types.Ref || t.IsArray() {
				return false
			}
			_, ca := c.a.constOf(ida)
			_, cb := c.b.constOf(idb)
			va, oka := c.a.foldConst(xa.RHS)
			vb, okb := c.b.foldConst(xb.RHS)
			return ca && cb && oka && okb && va != vb
		}
	}
	if !c.expr(xa.LHS, xb.LHS) {
		return false
	}
	return c.expr(xa.RHS, xb.RHS)
}

// expr compares two expressions in value position. Both sides must fold
// to the same constant, or fail to fold and agree structurally (with
// the index/receiver divergences the structural walk absorbs as
// generator moves). Reference-typed expressions compare as references:
// their runtime values travel through the heap isomorphism, so folded
// slot constants pair up instead of having to agree.
func (c *symCmp) expr(ea, eb ast.Expr) bool {
	ra := c.a.resolveRegen(ea)
	rb := c.b.resolveRegen(eb)
	// __tid matches __tid; where it may appear is validated separately
	// by the lock/unlock shape scan.
	if ia, ok := ra.(*ast.Ident); ok && ia.Name == TidVar {
		ib, ok := rb.(*ast.Ident)
		return ok && ib.Name == TidVar
	}
	ta, errA := c.p.StaticType(c.a.seq, ra)
	tb, errB := c.p.StaticType(c.b.seq, rb)
	if errA != nil || errB != nil || ta != tb {
		return false
	}
	if ta.Base == types.Ref && !ta.IsArray() {
		return c.refExpr(ra, rb)
	}
	va, oka := c.a.foldConst(ra)
	vb, okb := c.b.foldConst(rb)
	if oka != okb {
		return false
	}
	if oka {
		return va == vb
	}
	return c.structural(ra, rb)
}

// structural compares two non-folding, non-reference expressions node
// by node.
func (c *symCmp) structural(ra, rb ast.Expr) bool {
	switch xa := ra.(type) {
	case *ast.Ident:
		xb, ok := rb.(*ast.Ident)
		if !ok {
			return false
		}
		la, lb := localOf(xa), localOf(xb)
		if (la >= 0) != (lb >= 0) {
			return false
		}
		if la >= 0 {
			if la != lb {
				return false
			}
			// A fork-derived constant read where the enclosing
			// expression did not fold would evaluate differently under
			// the identity correspondence of local blocks: the values
			// must agree (e.g. `(p + t) % 2` guards reject here).
			va, ca := c.a.constOf(xa)
			vb, cb := c.b.constOf(xb)
			if ca != cb || (ca && va != vb) {
				return false
			}
			return true
		}
		ga, gb := globalOf(xa), globalOf(xb)
		if ga < 0 || ga != gb {
			return false
		}
		// Reading a whole shared array order-dependently is only sound
		// if the rotation does not move its cells.
		if c.p.Globals[ga].Type.IsArray() {
			c.acc.dyn[ga] = true
		}
		return true
	case *ast.BitsLit:
		xb, ok := rb.(*ast.BitsLit)
		return ok && xa.Text == xb.Text
	case *ast.Unary:
		xb, ok := rb.(*ast.Unary)
		return ok && xa.Op == xb.Op && c.expr(xa.X, xb.X)
	case *ast.Binary:
		xb, ok := rb.(*ast.Binary)
		return ok && xa.Op == xb.Op && c.expr(xa.X, xb.X) && c.expr(xa.Y, xb.Y)
	case *ast.FieldExpr:
		xb, ok := rb.(*ast.FieldExpr)
		return ok && c.fieldExpr(xa, xb)
	case *ast.IndexExpr:
		xb, ok := rb.(*ast.IndexExpr)
		return ok && c.indexExpr(xa, xb)
	case *ast.SliceExpr:
		xb, ok := rb.(*ast.SliceExpr)
		if !ok || xa.Len != xb.Len {
			return false
		}
		// Conservative: the base is treated as a whole-array access
		// (dyn-marked if global), and the start offsets must agree.
		if !c.expr(xa.X, xb.X) {
			return false
		}
		return c.expr(xa.Start, xb.Start)
	case *ast.CallExpr:
		xb, ok := rb.(*ast.CallExpr)
		if !ok || xa.Fun != xb.Fun || len(xa.Args) != len(xb.Args) {
			return false
		}
		for i := range xa.Args {
			if !c.expr(xa.Args[i], xb.Args[i]) {
				return false
			}
		}
		return true
	case *ast.CastExpr:
		xb, ok := rb.(*ast.CastExpr)
		return ok && xa.Type == xb.Type && c.expr(xa.X, xb.X)
	}
	return false
}

// refExpr compares two reference-typed expressions.
func (c *symCmp) refExpr(ra, rb ast.Expr) bool {
	switch xa := ra.(type) {
	case *ast.NullLit:
		_, ok := rb.(*ast.NullLit)
		return ok
	case *ast.Ident:
		xb, ok := rb.(*ast.Ident)
		if !ok {
			return false
		}
		la, lb := localOf(xa), localOf(xb)
		if (la >= 0) != (lb >= 0) {
			return false
		}
		if la >= 0 {
			// Runtime slot values travel through the heap isomorphism;
			// proven-constant ref locals recorded their slot pair at
			// their defining allocation or receiver fold.
			return la == lb
		}
		ga, gb := globalOf(xa), globalOf(xb)
		return ga >= 0 && ga == gb
	case *ast.NewExpr:
		xb, ok := rb.(*ast.NewExpr)
		if !ok || xa.Type != xb.Type || len(xa.Args) != len(xb.Args) {
			return false
		}
		if xa.Site < 0 || xa.Site >= len(c.p.Sites) || xb.Site < 0 || xb.Site >= len(c.p.Sites) {
			return false
		}
		sa, sb := c.p.Sites[xa.Site], c.p.Sites[xb.Site]
		if sa.Struct != sb.Struct || !c.acc.addSlot(sa.Struct, sa.Slot, sb.Slot) {
			return false
		}
		for i := range xa.Args {
			if !c.expr(xa.Args[i], xb.Args[i]) {
				return false
			}
		}
		return true
	case *ast.FieldExpr:
		xb, ok := rb.(*ast.FieldExpr)
		return ok && c.fieldExpr(xa, xb)
	case *ast.IndexExpr:
		xb, ok := rb.(*ast.IndexExpr)
		return ok && c.indexExpr(xa, xb)
	case *ast.CallExpr:
		xb, ok := rb.(*ast.CallExpr)
		if !ok || xa.Fun != xb.Fun || len(xa.Args) != len(xb.Args) {
			return false
		}
		for i := range xa.Args {
			if !c.expr(xa.Args[i], xb.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// fieldExpr compares two field accesses. Receivers that fold to
// distinct arena slots are an approved divergence recorded as a slot
// move (equal folds record the identity constraint, keeping the maps
// bijective).
func (c *symCmp) fieldExpr(fa, fb *ast.FieldExpr) bool {
	if fa.Name != fb.Name {
		return false
	}
	if fa.Struct == 0 || fa.Struct != fb.Struct {
		return false
	}
	st := &c.p.Structs[fa.Struct-1]
	sa := st.Name
	va, oka := c.a.foldConst(fa.X)
	vb, okb := c.b.foldConst(fb.X)
	if oka != okb {
		return false
	}
	if oka {
		inA := va > 0 && int(va) <= st.Arena
		inB := vb > 0 && int(vb) <= st.Arena
		if inA != inB {
			return false
		}
		if !inA {
			return va == vb // null faults identically on both sides
		}
		return c.acc.addSlot(sa, int(va), int(vb))
	}
	return c.refExpr(c.a.resolveRegen(fa.X), c.b.resolveRegen(fb.X))
}

// indexExpr compares two array accesses. Indices into the same global
// array that fold to distinct cells are the canonical approved
// divergence, recorded as a cell move; dynamic indices compare
// structurally and mark the global (the class fails if the rotation
// moves a dynamically indexed array).
func (c *symCmp) indexExpr(xa, xb *ast.IndexExpr) bool {
	ia := c.a.resolveRegen(xa.X)
	ib := c.b.resolveRegen(xb.X)
	ida, okA := ia.(*ast.Ident)
	idb, okB := ib.(*ast.Ident)
	if !okA || !okB {
		return false
	}
	la, lb := localOf(ida), localOf(idb)
	if (la >= 0) != (lb >= 0) {
		return false
	}
	if la >= 0 {
		// Local array: blocks rotate wholesale, so the intra-block
		// index must agree.
		if la != lb {
			return false
		}
		va, oka := c.a.foldConst(xa.Index)
		vb, okb := c.b.foldConst(xb.Index)
		if oka != okb {
			return false
		}
		if oka {
			return va == vb
		}
		return c.expr(xa.Index, xb.Index)
	}
	ga, gb := globalOf(ida), globalOf(idb)
	if ga < 0 || ga != gb {
		return false
	}
	va, oka := c.a.foldConst(xa.Index)
	vb, okb := c.b.foldConst(xb.Index)
	if oka != okb {
		return false
	}
	if !oka {
		c.acc.dyn[ga] = true
		return c.expr(xa.Index, xb.Index)
	}
	n := int64(cellCount(c.p.Globals[ga].Type))
	inA := va >= 0 && va < n
	inB := vb >= 0 && vb < n
	if inA != inB {
		return false
	}
	if !inA {
		return true // both fault out of bounds: identical outcome
	}
	return c.acc.addCell(ga, int(va), int(vb))
}
