// Package ir lowers a desugared sketch into the linear guarded-step
// form of §6: each thread becomes a fixed sequence of predicated atomic
// steps (if-conversion), with loops unrolled to a bound and a
// termination assertion (liveness as bounded safety).
//
// Every candidate implementation executes a subset of the sketch's
// statement instances, which is exactly the property trace projection
// relies on: the model checker runs candidates over this step list, and
// the projection of a counterexample trace is a reordering of the same
// step instances.
//
// Besides lowering, the package hosts the static analysis the model
// checker's partial-order reduction is built on: per-step shared
// read/write footprints (Footprints).
package ir

import (
	"fmt"

	"psketch/internal/ast"
	"psketch/internal/desugar"
	"psketch/internal/token"
	"psketch/internal/types"
)

// TidVar is the reserved identifier that evaluates to the executing
// thread's lock-owner id (1..N for forked threads, N+1 for main).
const TidVar = "__tid"

// Var is a variable slot (global or thread-local).
type Var struct {
	Name string
	Type types.Type
}

// Step is one predicated atomic step.
type Step struct {
	// Guards is a conjunction of side-effect-free boolean expressions
	// over thread-locals and holes; if any is false the step is skipped.
	Guards []ast.Expr
	// Cond is the blocking condition of a conditional atomic (nil if
	// the step is always enabled).
	Cond ast.Expr
	// Body is executed atomically when the step runs. It contains only
	// assignments, asserts, builtin-call statements, and (inside atomic
	// blocks) nested ifs/blocks.
	Body []ast.Stmt
	// Local reports that the step reads and writes only thread-local
	// state; the model checker runs such steps without a scheduling
	// point (a sound partial-order reduction).
	Local bool
	// Pos/Label locate the step for diagnostics and trace printing.
	Pos   token.Pos
	Label string
}

// Seq is a straight-line program for one thread.
type Seq struct {
	Name   string
	Tid    int // value of __tid while running this sequence
	Index  int // position in Program.Seqs
	Steps  []*Step
	Locals []Var
	// localIdx maps a local name to its Locals index.
	localIdx map[string]int
}

// Local returns the index of a named local, or -1. Evaluators do not
// call it: lowering stores the index on every identifier
// (ast.Ident.Slot).
func (s *Seq) Local(name string) int {
	if i, ok := s.localIdx[name]; ok {
		return i
	}
	return -1
}

// AllocSite records the static arena slot of one `new` occurrence.
type AllocSite struct {
	Struct    string
	StructIdx int // Struct's index in Program.Structs
	Slot      int // 1-based slot within the struct's arena
}

// Struct is one struct declaration of a lowered program. Field
// accesses carry their struct's index in Program.Structs
// (ast.FieldExpr.Struct).
type Struct struct {
	Name  string
	Info  *types.StructInfo
	Arena int   // allocation slots; slot 0 is null
	Ctor  []int // Info.CtorFields(): argument i of `new` sets field Ctor[i]
}

// Program is the lowered form of a sketch.
type Program struct {
	Sketch *desugar.Sketch
	W      int // int bit width

	// GlobalInit are steps run before the prologue to evaluate global
	// initializers (in declaration order).
	GlobalInit *Seq
	Prologue   *Seq
	Threads    []*Seq // nil for sequential sketches
	Epilogue   *Seq
	Spec       *Seq // sequential mode: the reference implementation

	Globals   []Var
	globalIdx map[string]int
	// Inputs are the harness parameters (sequential mode); symbolic
	// during verification, concrete during inductive synthesis.
	Inputs []Var
	// ResultVar names the local holding the harness return value
	// (sequential mode), and SpecResultVar the spec's.
	ResultVar     string
	SpecResultVar string

	// Arenas gives the number of allocation slots per struct type
	// (slot 0 is reserved for null).
	Arenas map[string]int
	// Structs lists the sketch's struct declarations in order.
	Structs   []Struct
	structIdx map[string]int
	// Sites maps allocation-site ids to arena slots.
	Sites []AllocSite
}

// Seqs returns every sequence in layout order: GlobalInit, Prologue,
// the threads, Epilogue and Spec, skipping absent ones. Seq.Index is
// the position in this list.
func (p *Program) Seqs() []*Seq {
	var out []*Seq
	for _, s := range []*Seq{p.GlobalInit, p.Prologue} {
		if s != nil {
			out = append(out, s)
		}
	}
	out = append(out, p.Threads...)
	for _, s := range []*Seq{p.Epilogue, p.Spec} {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// StructIndex returns the index of a named struct in Structs, or -1.
func (p *Program) StructIndex(name string) int {
	if i, ok := p.structIdx[name]; ok {
		return i
	}
	return -1
}

// Global returns the index of a named global, or -1.
func (p *Program) Global(name string) int {
	if i, ok := p.globalIdx[name]; ok {
		return i
	}
	return -1
}

// Concurrent reports whether the program has forked threads.
func (p *Program) Concurrent() bool { return len(p.Threads) > 0 }

// NumThreads returns the number of forked threads.
func (p *Program) NumThreads() int { return len(p.Threads) }

// MainTid is the lock-owner id used by the prologue and epilogue.
func (p *Program) MainTid() int { return len(p.Threads) + 1 }

// StaticType resolves the type of an expression structurally, using
// the sequence's local table and the globals (the checker's Types map
// does not survive loop unrolling and per-thread cloning).
func (p *Program) StaticType(seq *Seq, e ast.Expr) (types.Type, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == TidVar {
			return types.TInt, nil
		}
		if seq != nil {
			if i := seq.Local(x.Name); i >= 0 {
				return seq.Locals[i].Type, nil
			}
		}
		if i := p.Global(x.Name); i >= 0 {
			return p.Globals[i].Type, nil
		}
		return types.Type{}, fmt.Errorf("%s: unknown variable %s", x.P, x.Name)
	case *ast.NullLit:
		return types.Type{Base: types.Ref}, nil
	case *ast.IntLit:
		return types.TInt, nil
	case *ast.BoolLit:
		return types.TBool, nil
	case *ast.NewExpr:
		return types.RefTo(x.Type), nil
	case *ast.FieldExpr:
		sn, err := p.StructOf(seq, x)
		if err != nil {
			return types.Type{}, err
		}
		fi, idx := p.Sketch.Info.Structs[sn].Field(x.Name)
		if idx < 0 {
			return types.Type{}, fmt.Errorf("%s: struct %s has no field %s", x.P, sn, x.Name)
		}
		return fi.Type, nil
	case *ast.IndexExpr:
		t, err := p.StaticType(seq, x.X)
		if err != nil {
			return types.Type{}, err
		}
		return t.Elem(), nil
	case *ast.SliceExpr:
		t, err := p.StaticType(seq, x.X)
		if err != nil {
			return types.Type{}, err
		}
		return types.ArrayOf(t.Elem(), x.Len), nil
	case *ast.Regen:
		// All type-valid choices share one type; use the first that
		// resolves concretely.
		var last error
		for _, ch := range x.Choices {
			t, err := p.StaticType(seq, ch)
			if err == nil && !(t.Base == types.Ref && t.Struct == "") {
				return t, nil
			}
			if err == nil {
				return t, nil
			}
			last = err
		}
		return types.Type{}, fmt.Errorf("%s: cannot type generator: %v", x.P, last)
	case *ast.CallExpr:
		switch x.Fun {
		case "AtomicSwap":
			return p.StaticType(seq, x.Args[0])
		case "CAS":
			return types.TBool, nil
		default:
			return types.TInt, nil
		}
	case *ast.CastExpr:
		return types.TInt, nil
	case *ast.Unary:
		if x.Op == token.NOT {
			return types.TBool, nil
		}
		return types.TInt, nil
	case *ast.Binary:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
			return types.TInt, nil
		default:
			return types.TBool, nil
		}
	}
	return types.Type{}, fmt.Errorf("%s: cannot type %T", e.Pos(), e)
}

// StructOf resolves the struct type of a field access receiver.
func (p *Program) StructOf(seq *Seq, f *ast.FieldExpr) (string, error) {
	t, err := p.StaticType(seq, f.X)
	if err != nil {
		return "", err
	}
	if t.Base != types.Ref || t.Struct == "" {
		return "", fmt.Errorf("%s: receiver of .%s is not a struct reference (%s)", f.P, f.Name, t)
	}
	return t.Struct, nil
}
