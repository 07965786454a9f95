// Package interp is the concrete evaluator for lowered programs: it
// executes steps of a fixed candidate on a machine state. The model
// checker drives it across interleavings; the CEGIS loop uses it to run
// sequential candidates on counterexample inputs.
package interp

import (
	"fmt"

	"psketch/internal/ast"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/state"
	"psketch/internal/token"
	"psketch/internal/types"
)

// FailKind classifies a property violation.
type FailKind int

// The failure kinds checked by the verifier (§4.3): programmer asserts,
// implicit memory safety, deadlock (detected by the model checker), and
// the bounded-termination assert emitted by loop unrolling.
const (
	FailAssert FailKind = iota
	FailNull
	FailBounds
	FailDiv
	FailDeadlock
)

func (k FailKind) String() string {
	switch k {
	case FailAssert:
		return "assertion violation"
	case FailNull:
		return "null dereference"
	case FailBounds:
		return "array index out of bounds"
	case FailDiv:
		return "division by zero"
	case FailDeadlock:
		return "deadlock"
	}
	return "failure"
}

// Failure is a concrete property violation.
type Failure struct {
	Kind FailKind
	Pos  token.Pos
	Msg  string
}

func (f *Failure) Error() string {
	if f.Msg != "" {
		return fmt.Sprintf("%s: %s: %s", f.Pos, f.Kind, f.Msg)
	}
	return fmt.Sprintf("%s: %s", f.Pos, f.Kind)
}

// Ctx evaluates expressions and statements of one sequence against a
// state, under a fixed candidate.
type Ctx struct {
	L    *state.Layout
	P    *ir.Program
	St   *state.State
	Seq  *ir.Seq
	Cand desugar.Candidate
}

// NewCtx builds an evaluation context.
func NewCtx(l *state.Layout, st *state.State, seq *ir.Seq, cand desugar.Candidate) *Ctx {
	return &Ctx{L: l, P: l.Prog, St: st, Seq: seq, Cand: cand}
}

// Reset retargets the context at another state (and optionally another
// sequence), so long-lived contexts can be reused across transitions
// instead of allocating one per step — the model checker's hot path.
func (c *Ctx) Reset(st *state.State, seq *ir.Seq) {
	c.St, c.Seq = st, seq
}

// wrap truncates to W-bit two's complement.
func (c *Ctx) wrap(v int64) int32 {
	w := uint(c.P.W)
	m := int64(1) << w
	v &= m - 1
	if v >= m>>1 {
		v -= m
	}
	return int32(v)
}

// EvalGuards reports whether every guard of the step holds. Guards are
// side-effect-free by construction.
func (c *Ctx) EvalGuards(s *ir.Step) (bool, *Failure) {
	for _, g := range s.Guards {
		v, f := c.Eval(g)
		if f != nil {
			return false, f
		}
		if v == 0 {
			return false, nil
		}
	}
	return true, nil
}

// EvalCond evaluates the blocking condition (true when absent).
func (c *Ctx) EvalCond(s *ir.Step) (bool, *Failure) {
	if s.Cond == nil {
		return true, nil
	}
	v, f := c.Eval(s.Cond)
	return v != 0, f
}

// ExecBody runs the step's body atomically.
func (c *Ctx) ExecBody(s *ir.Step) *Failure {
	for _, st := range s.Body {
		if f := c.ExecStmt(st); f != nil {
			return f
		}
	}
	return nil
}

// ExecStmt executes one simple statement.
func (c *Ctx) ExecStmt(s ast.Stmt) *Failure {
	switch x := s.(type) {
	case *ast.Block:
		for _, st := range x.Stmts {
			if f := c.ExecStmt(st); f != nil {
				return f
			}
		}
		return nil
	case *ast.AssignStmt:
		return c.Assign(x.LHS, x.RHS)
	case *ast.AssertStmt:
		v, f := c.Eval(x.Cond)
		if f != nil {
			return f
		}
		if v == 0 {
			return &Failure{Kind: FailAssert, Pos: x.P, Msg: types.ExprString(x.Cond)}
		}
		return nil
	case *ast.ExprStmt:
		_, f := c.Eval(x.X)
		return f
	case *ast.IfStmt:
		v, f := c.Eval(x.Cond)
		if f != nil {
			return f
		}
		if v != 0 {
			return c.ExecStmt(x.Then)
		}
		if x.Else != nil {
			return c.ExecStmt(x.Else)
		}
		return nil
	}
	return &Failure{Kind: FailAssert, Pos: s.Pos(), Msg: fmt.Sprintf("interp: unexpected statement %T", s)}
}

// loc is a resolved storage location: a cell range in the state.
type loc struct {
	off int
	n   int
}

// ResolveLoc resolves an l-value to its cell range.
func (c *Ctx) ResolveLoc(e ast.Expr) (loc, *Failure) {
	switch x := e.(type) {
	case *ast.Ident:
		switch {
		case x.Slot > 0:
			i := int(x.Slot - 1)
			return loc{c.L.LocalOff(c.Seq, i), cellsOf(c.Seq.Locals[i].Type)}, nil
		case x.Slot < 0:
			i := int(-x.Slot - 1)
			return loc{c.L.GlobalOff(i), cellsOf(c.P.Globals[i].Type)}, nil
		}
		return loc{}, &Failure{Kind: FailAssert, Pos: x.P, Msg: "interp: unknown variable " + x.Name}
	case *ast.FieldExpr:
		slot, f := c.Eval(x.X)
		if f != nil {
			return loc{}, f
		}
		if slot == 0 {
			return loc{}, &Failure{Kind: FailNull, Pos: x.P, Msg: types.ExprString(x)}
		}
		if x.Struct == 0 {
			msg := "interp: unknown field " + x.Name
			if _, err := c.P.StructOf(c.Seq, x); err != nil {
				msg = err.Error()
			}
			return loc{}, &Failure{Kind: FailAssert, Pos: x.P, Msg: msg}
		}
		off, ok := c.L.FieldCell(int(x.Struct-1), int(x.Field), slot)
		if !ok {
			_, err := c.L.FieldOff(c.P.Structs[x.Struct-1].Name, x.Name, slot)
			return loc{}, &Failure{Kind: FailBounds, Pos: x.P, Msg: err.Error()}
		}
		return loc{off, 1}, nil
	case *ast.IndexExpr:
		base, f := c.ResolveLoc(x.X)
		if f != nil {
			return loc{}, f
		}
		idx, f := c.Eval(x.Index)
		if f != nil {
			return loc{}, f
		}
		if idx < 0 || int(idx) >= base.n {
			return loc{}, &Failure{Kind: FailBounds, Pos: x.P, Msg: fmt.Sprintf("index %d of %d", idx, base.n)}
		}
		return loc{base.off + int(idx), 1}, nil
	case *ast.SliceExpr:
		base, f := c.ResolveLoc(x.X)
		if f != nil {
			return loc{}, f
		}
		st, f := c.Eval(x.Start)
		if f != nil {
			return loc{}, f
		}
		if st < 0 || int(st)+x.Len > base.n {
			return loc{}, &Failure{Kind: FailBounds, Pos: x.P, Msg: fmt.Sprintf("slice [%d::%d] of %d", st, x.Len, base.n)}
		}
		return loc{base.off + int(st), x.Len}, nil
	case *ast.Regen:
		meta := c.P.Sketch.Holes[x.ID]
		return c.ResolveLoc(x.Choices[c.Cand.Choice(x.ID, meta.Choices)])
	}
	return loc{}, &Failure{Kind: FailAssert, Pos: e.Pos(), Msg: "interp: not a location"}
}

func cellsOf(t types.Type) int {
	if t.IsArray() {
		return t.Len
	}
	return 1
}

// Assign stores rhs into the location lhs, handling arrays, scalar
// broadcast fills, bit-string literals, and bit-array holes.
func (c *Ctx) Assign(lhs, rhs ast.Expr) *Failure {
	dst, f := c.ResolveLoc(lhs)
	if f != nil {
		return f
	}
	if dst.n == 1 {
		v, f := c.Eval(rhs)
		if f != nil {
			return f
		}
		c.St.Cells[dst.off] = v
		return nil
	}
	switch r := rhs.(type) {
	case *ast.IntLit:
		for i := 0; i < dst.n; i++ {
			c.St.Cells[dst.off+i] = c.wrap(r.Val)
		}
		return nil
	case *ast.BoolLit:
		v := int32(0)
		if r.Val {
			v = 1
		}
		for i := 0; i < dst.n; i++ {
			c.St.Cells[dst.off+i] = v
		}
		return nil
	case *ast.BitsLit:
		if len(r.Text) != dst.n {
			return &Failure{Kind: FailBounds, Pos: r.P, Msg: "bit-string length mismatch"}
		}
		for i := 0; i < dst.n; i++ {
			v := int32(0)
			if r.Text[i] == '1' {
				v = 1
			}
			c.St.Cells[dst.off+i] = v
		}
		return nil
	case *ast.Hole:
		bits := c.Cand.Value(r.ID)
		for i := 0; i < dst.n; i++ {
			c.St.Cells[dst.off+i] = int32((bits >> uint(i)) & 1)
		}
		return nil
	case *ast.Regen:
		meta := c.P.Sketch.Holes[r.ID]
		return c.Assign(lhs, r.Choices[c.Cand.Choice(r.ID, meta.Choices)])
	default:
		src, f := c.ResolveLoc(rhs)
		if f != nil {
			return f
		}
		if src.n != dst.n {
			return &Failure{Kind: FailBounds, Pos: rhs.Pos(), Msg: "array length mismatch"}
		}
		tmp := make([]int32, src.n)
		copy(tmp, c.St.Cells[src.off:src.off+src.n])
		copy(c.St.Cells[dst.off:dst.off+dst.n], tmp)
		return nil
	}
}

// Eval evaluates a scalar expression (side effects included: builtins
// and allocation may run).
func (c *Ctx) Eval(e ast.Expr) (int32, *Failure) {
	switch x := e.(type) {
	case *ast.IntLit:
		return c.wrap(x.Val), nil
	case *ast.BoolLit:
		if x.Val {
			return 1, nil
		}
		return 0, nil
	case *ast.NullLit:
		return 0, nil
	case *ast.Ident:
		if x.Slot == 0 && x.Name == ir.TidVar {
			return int32(c.Seq.Tid), nil
		}
		l, f := c.ResolveLoc(x)
		if f != nil {
			return 0, f
		}
		if l.n != 1 {
			return 0, &Failure{Kind: FailAssert, Pos: x.P, Msg: "array used as scalar"}
		}
		return c.St.Cells[l.off], nil
	case *ast.FieldExpr, *ast.IndexExpr:
		l, f := c.ResolveLoc(e)
		if f != nil {
			return 0, f
		}
		return c.St.Cells[l.off], nil
	case *ast.Hole:
		meta := c.P.Sketch.Holes[x.ID]
		v := c.Cand.Value(x.ID)
		if meta.Kind == desugar.HoleBool {
			if v != 0 {
				return 1, nil
			}
			return 0, nil
		}
		return c.wrap(v), nil
	case *ast.Regen:
		meta := c.P.Sketch.Holes[x.ID]
		return c.Eval(x.Choices[c.Cand.Choice(x.ID, meta.Choices)])
	case *ast.Unary:
		v, f := c.Eval(x.X)
		if f != nil {
			return 0, f
		}
		switch x.Op {
		case token.NOT:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		case token.SUB:
			return c.wrap(-int64(v)), nil
		}
	case *ast.Binary:
		return c.evalBinary(x)
	case *ast.CastExpr:
		return c.evalCast(x)
	case *ast.CallExpr:
		return c.evalBuiltin(x)
	case *ast.NewExpr:
		return c.evalNew(x)
	}
	return 0, &Failure{Kind: FailAssert, Pos: e.Pos(), Msg: fmt.Sprintf("interp: cannot evaluate %T", e)}
}

func (c *Ctx) evalBinary(x *ast.Binary) (int32, *Failure) {
	// Short-circuit forms first (their right side may have effects).
	switch x.Op {
	case token.LAND:
		l, f := c.Eval(x.X)
		if f != nil || l == 0 {
			return 0, f
		}
		r, f := c.Eval(x.Y)
		if f != nil {
			return 0, f
		}
		return boolVal(r != 0), nil
	case token.LOR:
		l, f := c.Eval(x.X)
		if f != nil {
			return 0, f
		}
		if l != 0 {
			return 1, nil
		}
		r, f := c.Eval(x.Y)
		if f != nil {
			return 0, f
		}
		return boolVal(r != 0), nil
	}
	l, f := c.Eval(x.X)
	if f != nil {
		return 0, f
	}
	r, f := c.Eval(x.Y)
	if f != nil {
		return 0, f
	}
	switch x.Op {
	case token.ADD:
		return c.wrap(int64(l) + int64(r)), nil
	case token.SUB:
		return c.wrap(int64(l) - int64(r)), nil
	case token.MUL:
		return c.wrap(int64(l) * int64(r)), nil
	case token.QUO:
		if r == 0 {
			return 0, &Failure{Kind: FailDiv, Pos: x.P}
		}
		return c.wrap(int64(l) / int64(r)), nil
	case token.REM:
		if r == 0 {
			return 0, &Failure{Kind: FailDiv, Pos: x.P}
		}
		return c.wrap(int64(l) % int64(r)), nil
	case token.EQ:
		return boolVal(l == r), nil
	case token.NEQ:
		return boolVal(l != r), nil
	case token.LT:
		return boolVal(l < r), nil
	case token.LEQ:
		return boolVal(l <= r), nil
	case token.GT:
		return boolVal(l > r), nil
	case token.GEQ:
		return boolVal(l >= r), nil
	}
	return 0, &Failure{Kind: FailAssert, Pos: x.P, Msg: "interp: bad operator"}
}

func boolVal(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// evalCast packs a bit or bit-array into an integer (cell 0 is the
// least-significant bit).
func (c *Ctx) evalCast(x *ast.CastExpr) (int32, *Failure) {
	switch inner := x.X.(type) {
	case *ast.SliceExpr, *ast.Ident, *ast.IndexExpr, *ast.FieldExpr:
		l, f := c.ResolveLoc(inner)
		if f != nil {
			return 0, f
		}
		v := int64(0)
		for i := 0; i < l.n; i++ {
			if c.St.Cells[l.off+i] != 0 {
				v |= 1 << uint(i)
			}
		}
		return c.wrap(v), nil
	default:
		v, f := c.Eval(x.X)
		if f != nil {
			return 0, f
		}
		return boolVal(v != 0), nil
	}
}

// evalBuiltin executes the atomic primitives of §4.2.
func (c *Ctx) evalBuiltin(x *ast.CallExpr) (int32, *Failure) {
	locOf := func() (loc, *Failure) { return c.ResolveLoc(x.Args[0]) }
	switch x.Fun {
	case "AtomicSwap":
		l, f := locOf()
		if f != nil {
			return 0, f
		}
		v, f := c.Eval(x.Args[1])
		if f != nil {
			return 0, f
		}
		old := c.St.Cells[l.off]
		c.St.Cells[l.off] = v
		return old, nil
	case "CAS":
		l, f := locOf()
		if f != nil {
			return 0, f
		}
		oldv, f := c.Eval(x.Args[1])
		if f != nil {
			return 0, f
		}
		newv, f := c.Eval(x.Args[2])
		if f != nil {
			return 0, f
		}
		if c.St.Cells[l.off] == oldv {
			c.St.Cells[l.off] = newv
			return 1, nil
		}
		return 0, nil
	case "AtomicReadAndDecr":
		l, f := locOf()
		if f != nil {
			return 0, f
		}
		old := c.St.Cells[l.off]
		c.St.Cells[l.off] = c.wrap(int64(old) - 1)
		return old, nil
	case "AtomicReadAndIncr":
		l, f := locOf()
		if f != nil {
			return 0, f
		}
		old := c.St.Cells[l.off]
		c.St.Cells[l.off] = c.wrap(int64(old) + 1)
		return old, nil
	}
	return 0, &Failure{Kind: FailAssert, Pos: x.P, Msg: "interp: unknown builtin " + x.Fun}
}

// evalNew allocates the static arena slot of the site and initializes
// the fields (constructor arguments bind the defaultless fields in
// declaration order; other fields get their declared defaults).
func (c *Ctx) evalNew(x *ast.NewExpr) (int32, *Failure) {
	site := c.P.Sites[x.Site]
	slot := int32(site.Slot)
	st := &c.P.Structs[site.StructIdx]
	ctor := st.Ctor
	for fi, fld := range st.Info.Fields {
		var v int32
		if len(ctor) > 0 && ctor[0] == fi {
			av, f := c.Eval(x.Args[len(st.Ctor)-len(ctor)])
			if f != nil {
				return 0, f
			}
			v = av
			ctor = ctor[1:]
		} else if fld.Default != nil {
			dv, f := c.Eval(fld.Default)
			if f != nil {
				return 0, f
			}
			v = dv
		}
		off, _ := c.L.FieldCell(site.StructIdx, fi, slot)
		c.St.Cells[off] = v
	}
	return slot, nil
}
