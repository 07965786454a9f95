// Package ast defines the abstract syntax tree of the PSketch language.
package ast

import "psketch/internal/token"

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// TypeExpr is the syntactic form of a type: a base name plus an
// optional fixed array length ("int[16]", "bit[8]", "QueueEntry").
type TypeExpr struct {
	P        token.Pos
	Name     string // "int", "bool", "bit", "void", or a struct name
	ArrayLen int    // 0 => scalar
}

func (t *TypeExpr) Pos() token.Pos { return t.P }

func (t *TypeExpr) String() string {
	if t == nil {
		return "void"
	}
	if t.ArrayLen > 0 {
		return t.Name + "[" + itoa(t.ArrayLen) + "]"
	}
	return t.Name
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Program is a parsed compilation unit.
type Program struct {
	Structs []*StructDecl
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
}

// Struct returns the struct declaration with the given name, or nil.
func (p *Program) Struct(name string) *StructDecl {
	for _, s := range p.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Func returns the function declaration with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// StructDecl declares a heap record type. Field defaults follow the
// paper's class syntax ("QueueEntry next = null;"); constructor
// arguments bind fields positionally in declaration order for fields
// without defaults.
type StructDecl struct {
	P      token.Pos
	Name   string
	Fields []*Field
}

func (d *StructDecl) Pos() token.Pos { return d.P }

// Field is one struct field with an optional default value.
type Field struct {
	P       token.Pos
	Type    *TypeExpr
	Name    string
	Default Expr // nil => constructor argument, in order
}

func (f *Field) Pos() token.Pos { return f.P }

// GlobalDecl declares a shared global variable.
type GlobalDecl struct {
	P    token.Pos
	Type *TypeExpr
	Name string
	Init Expr // may be nil (zero value / null)
}

func (d *GlobalDecl) Pos() token.Pos { return d.P }

// Param is one function parameter.
type Param struct {
	P    token.Pos
	Type *TypeExpr
	Name string
}

func (p *Param) Pos() token.Pos { return p.P }

// FuncDecl declares a function. Harness functions are synthesis entry
// points; generator functions get fresh holes at every call site (they
// are always inlined).
type FuncDecl struct {
	P          token.Pos
	Generator  bool
	Harness    bool
	Ret        *TypeExpr // nil => void
	Name       string
	Params     []*Param
	Implements string // spec function name, or ""
	Body       *Block
}

func (d *FuncDecl) Pos() token.Pos { return d.P }

// ---------------------------------------------------------------- Stmt

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a brace-delimited statement list.
type Block struct {
	P     token.Pos
	Stmts []Stmt
}

// DeclStmt declares a local variable.
type DeclStmt struct {
	P    token.Pos
	Type *TypeExpr
	Name string
	Init Expr // may be nil
}

// AssignStmt assigns RHS to the l-value LHS.
type AssignStmt struct {
	P   token.Pos
	LHS Expr
	RHS Expr
}

// IfStmt is a conditional; Else may be nil, *Block, or *IfStmt.
type IfStmt struct {
	P    token.Pos
	Cond Expr
	Then *Block
	Else Stmt
}

// WhileStmt is a loop; loops are unrolled to a bound during lowering.
type WhileStmt struct {
	P    token.Pos
	Cond Expr
	Body *Block
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	P   token.Pos
	Val Expr // nil for void
}

// AssertStmt checks a correctness condition.
type AssertStmt struct {
	P    token.Pos
	Cond Expr
}

// AtomicStmt executes Body as one indivisible step; if Cond is non-nil
// the step blocks until Cond holds (a conditional atomic, §4.2).
type AtomicStmt struct {
	P    token.Pos
	Cond Expr // nil => plain atomic section
	Body *Block
}

// ForkStmt spawns N threads each running Body with the index variable
// bound to 0..N-1, and blocks until all terminate (§4.2).
type ForkStmt struct {
	P    token.Pos
	Var  string
	N    Expr
	Body *Block
}

// ReorderStmt lets the synthesizer pick the execution order of the
// statements in Body (§4.1).
type ReorderStmt struct {
	P    token.Pos
	Body *Block
}

// RepeatStmt replicates Body Count times at synthesis time, with fresh
// holes per replica (§3). Count may itself be a hole.
type RepeatStmt struct {
	P     token.Pos
	Count Expr
	Body  Stmt
}

// LockStmt is lock(e) / unlock(e) sugar over conditional atomics
// (Figure 7).
type LockStmt struct {
	P      token.Pos
	Target Expr
	Unlock bool
}

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	P token.Pos
	X Expr
}

func (s *Block) Pos() token.Pos       { return s.P }
func (s *DeclStmt) Pos() token.Pos    { return s.P }
func (s *AssignStmt) Pos() token.Pos  { return s.P }
func (s *IfStmt) Pos() token.Pos      { return s.P }
func (s *WhileStmt) Pos() token.Pos   { return s.P }
func (s *ReturnStmt) Pos() token.Pos  { return s.P }
func (s *AssertStmt) Pos() token.Pos  { return s.P }
func (s *AtomicStmt) Pos() token.Pos  { return s.P }
func (s *ForkStmt) Pos() token.Pos    { return s.P }
func (s *ReorderStmt) Pos() token.Pos { return s.P }
func (s *RepeatStmt) Pos() token.Pos  { return s.P }
func (s *LockStmt) Pos() token.Pos    { return s.P }
func (s *ExprStmt) Pos() token.Pos    { return s.P }

func (*Block) stmtNode()       {}
func (*DeclStmt) stmtNode()    {}
func (*AssignStmt) stmtNode()  {}
func (*IfStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()   {}
func (*ReturnStmt) stmtNode()  {}
func (*AssertStmt) stmtNode()  {}
func (*AtomicStmt) stmtNode()  {}
func (*ForkStmt) stmtNode()    {}
func (*ReorderStmt) stmtNode() {}
func (*RepeatStmt) stmtNode()  {}
func (*LockStmt) stmtNode()    {}
func (*ExprStmt) stmtNode()    {}

// ---------------------------------------------------------------- Expr

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Ident is a variable reference.
type Ident struct {
	P    token.Pos
	Name string
	// Slot is the variable the name denotes, set when the program is
	// lowered (internal/ir): local i of the enclosing sequence is i+1,
	// global i is -(i+1), and 0 means unresolved (the thread-id name,
	// an unknown name, or not lowered yet).
	Slot int32
}

// IntLit is an integer literal.
type IntLit struct {
	P   token.Pos
	Val int64
}

// BoolLit is true/false.
type BoolLit struct {
	P   token.Pos
	Val bool
}

// NullLit is the null reference.
type NullLit struct {
	P token.Pos
}

// BitsLit is a quoted bit-array initializer like "11001000", read
// left-to-right as in §3.
type BitsLit struct {
	P    token.Pos
	Text string
}

// Hole is the primitive synthesis hole ?? or ??(w). ID is assigned
// during lowering.
type Hole struct {
	P     token.Pos
	Width int // 0 => context-determined default
	ID    int // -1 until assigned
}

// Regen is a regular-expression expression generator {| e |} (§4.1).
// Text is the raw generator body; Choices is filled by the type checker
// with the type-valid parsed expressions of its bounded language, and
// ID is assigned during lowering.
type Regen struct {
	P       token.Pos
	Text    string
	Choices []Expr
	ID      int // -1 until assigned
}

// Unary is !x or -x.
type Unary struct {
	P  token.Pos
	Op token.Kind
	X  Expr
}

// Binary is a binary operation.
type Binary struct {
	P    token.Pos
	Op   token.Kind
	X, Y Expr
}

// FieldExpr is x.name.
type FieldExpr struct {
	P    token.Pos
	X    Expr
	Name string
	// Struct and Field are set when the program is lowered
	// (internal/ir): Struct is 1 + the index of the receiver's struct
	// in the lowered program's struct table, and Field the index of
	// the field within it. Struct 0 means unresolved.
	Struct, Field int32
}

// IndexExpr is a[i].
type IndexExpr struct {
	P     token.Pos
	X     Expr
	Index Expr
}

// SliceExpr is the sub-array a[i::k] of §3 (k cells starting at i).
type SliceExpr struct {
	P     token.Pos
	X     Expr
	Start Expr
	Len   int
}

// CallExpr is a function or builtin call.
type CallExpr struct {
	P    token.Pos
	Fun  string
	Args []Expr
}

// CastExpr is (int) e, converting a bit array to an integer (§3).
type CastExpr struct {
	P    token.Pos
	Type *TypeExpr
	X    Expr
}

// NewExpr allocates a struct instance; arguments bind the defaultless
// fields in declaration order. Site is the static allocation site id
// assigned during lowering.
type NewExpr struct {
	P    token.Pos
	Type string
	Args []Expr
	Site int // -1 until assigned
}

func (e *Ident) Pos() token.Pos     { return e.P }
func (e *IntLit) Pos() token.Pos    { return e.P }
func (e *BoolLit) Pos() token.Pos   { return e.P }
func (e *NullLit) Pos() token.Pos   { return e.P }
func (e *BitsLit) Pos() token.Pos   { return e.P }
func (e *Hole) Pos() token.Pos      { return e.P }
func (e *Regen) Pos() token.Pos     { return e.P }
func (e *Unary) Pos() token.Pos     { return e.P }
func (e *Binary) Pos() token.Pos    { return e.P }
func (e *FieldExpr) Pos() token.Pos { return e.P }
func (e *IndexExpr) Pos() token.Pos { return e.P }
func (e *SliceExpr) Pos() token.Pos { return e.P }
func (e *CallExpr) Pos() token.Pos  { return e.P }
func (e *CastExpr) Pos() token.Pos  { return e.P }
func (e *NewExpr) Pos() token.Pos   { return e.P }

func (*Ident) exprNode()     {}
func (*IntLit) exprNode()    {}
func (*BoolLit) exprNode()   {}
func (*NullLit) exprNode()   {}
func (*BitsLit) exprNode()   {}
func (*Hole) exprNode()      {}
func (*Regen) exprNode()     {}
func (*Unary) exprNode()     {}
func (*Binary) exprNode()    {}
func (*FieldExpr) exprNode() {}
func (*IndexExpr) exprNode() {}
func (*SliceExpr) exprNode() {}
func (*CallExpr) exprNode()  {}
func (*CastExpr) exprNode()  {}
func (*NewExpr) exprNode()   {}
