package ir

import (
	"fmt"
	"math"

	"psketch/internal/ast"
	"psketch/internal/types"
)

// pending marks a name that resolve has not bound yet.
const pending = math.MinInt32

// resolve binds every name of the lowered program once: each
// identifier to a local or global slot (ast.Ident.Slot) and each field
// access to a (struct, field) pair (ast.FieldExpr.Struct/Field). The
// evaluators (internal/sym, internal/interp) and the footprint analysis
// then index slices instead of looking names up on every evaluation.
// Names that do not resolve stay 0; evaluating them reports an
// unknown-name error.
//
// A local slot is an index into the evaluating sequence's locals, so a
// node reached from two sequences is correct only if both bind it
// alike. The first pass marks every name pending; the second binds
// them and fails on a node it already bound differently, instead of
// keeping one sequence's binding. Lowering gives each thread its own
// clone of the fork body, so no sketch reaches that error.
func (p *Program) resolve() error {
	p.structIdx = map[string]int{}
	p.Structs = p.Structs[:0]
	for _, sd := range p.Sketch.Prog.Structs {
		info := p.Sketch.Info.Structs[sd.Name]
		p.structIdx[sd.Name] = len(p.Structs)
		p.Structs = append(p.Structs, Struct{Name: sd.Name, Info: info, Arena: p.Arenas[sd.Name], Ctor: info.CtorFields()})
	}
	for i := range p.Sites {
		p.Sites[i].StructIdx = p.StructIndex(p.Sites[i].Struct)
	}
	r := &resolver{p: p}
	// Field defaults run at every `new`, in whichever sequence; the
	// type checker lets them see globals only.
	for _, st := range p.Structs {
		for _, f := range st.Info.Fields {
			ast.WalkExpr(f.Default, func(e ast.Expr) {
				markPending(e)
				r.expr(nil, e)
			})
		}
	}
	seqs := p.Seqs()
	for _, seq := range seqs {
		walkNames(seq, markPending)
	}
	for i, seq := range seqs {
		seq.Index = i
		walkNames(seq, func(e ast.Expr) { r.expr(seq, e) })
	}
	return r.err
}

// walkNames calls f on every expression node of seq's steps.
func walkNames(seq *Seq, f func(ast.Expr)) {
	var prev []ast.Expr
	for _, step := range seq.Steps {
		for j, g := range step.Guards {
			// Steps under one if or loop share their guard
			// expressions; walk each once.
			if j < len(prev) && prev[j] == g {
				continue
			}
			ast.WalkExpr(g, f)
		}
		prev = step.Guards
		ast.WalkExpr(step.Cond, f)
		for _, b := range step.Body {
			ast.WalkExprs(b, f)
		}
	}
}

func markPending(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		x.Slot = pending
	case *ast.FieldExpr:
		x.Struct = pending
	}
}

type resolver struct {
	p   *Program
	err error
}

func (r *resolver) expr(seq *Seq, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		slot := int32(0)
		if i := localIndex(seq, x.Name); i >= 0 {
			slot = int32(i + 1)
		} else if i := r.p.Global(x.Name); i >= 0 {
			slot = int32(-(i + 1))
		}
		if x.Slot != pending && x.Slot != slot {
			r.conflict(seq, x)
		}
		x.Slot = slot
	case *ast.FieldExpr:
		var st, fi int32
		if sn, err := r.p.StructOf(seq, x); err == nil {
			if si := r.p.StructIndex(sn); si >= 0 {
				if _, f := r.p.Structs[si].Info.Field(x.Name); f >= 0 {
					st, fi = int32(si+1), int32(f)
				}
			}
		}
		if x.Struct != pending && (x.Struct != st || x.Field != fi) {
			r.conflict(seq, x)
		}
		x.Struct, x.Field = st, fi
	}
}

func (r *resolver) conflict(seq *Seq, e ast.Expr) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: ir: %s is shared by sequences that bind it differently (one is %s)", e.Pos(), types.ExprString(e), seq.Name)
	}
}

func localIndex(seq *Seq, name string) int {
	if seq == nil {
		return -1
	}
	return seq.Local(name)
}

// localOf returns the index of the local a resolved identifier names,
// or -1.
func localOf(id *ast.Ident) int {
	if id.Slot > 0 {
		return int(id.Slot - 1)
	}
	return -1
}

// globalOf returns the index of the global a resolved identifier
// names, or -1.
func globalOf(id *ast.Ident) int {
	if id.Slot < 0 {
		return int(-id.Slot - 1)
	}
	return -1
}
