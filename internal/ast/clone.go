package ast

// CloneMode controls how holes, generators and allocation sites are
// treated when cloning.
type CloneMode int

const (
	// CloneFresh resets hole/generator IDs and allocation sites to
	// unassigned, producing independent synthesis choices. Used for
	// repeat replicas and generator-function inlining (§3, §4.1).
	CloneFresh CloneMode = iota
	// CloneShare keeps IDs, so the copy denotes the same synthesis
	// choices as the original. Used when inlining an ordinary sketched
	// function at several call sites (one shared implementation) and
	// when unrolling loops.
	CloneShare
)

// Cloner deep-copies AST fragments. When Mode is CloneFresh it records
// the old→new node mapping for holes and generators, so that side
// constraints referring to the originals can be cloned consistently.
//
// Holes and generators with an assigned ID are deduplicated by ID, not
// by pointer: several distinct nodes carrying the same ID denote the
// same synthesis choice (this happens after reorder encoding, which
// replicates statements), and a fresh clone must keep them unified.
type Cloner struct {
	Mode       Mode
	Holes      map[*Hole]*Hole
	Regens     map[*Regen]*Regen
	holesByID  map[int]*Hole
	regensByID map[int]*Regen
}

// Mode is an alias for CloneMode.
type Mode = CloneMode

// NewCloner returns a cloner in the given mode.
func NewCloner(mode CloneMode) *Cloner {
	return &Cloner{
		Mode:  mode,
		Holes: map[*Hole]*Hole{}, Regens: map[*Regen]*Regen{},
		holesByID: map[int]*Hole{}, regensByID: map[int]*Regen{},
	}
}

// Expr deep-copies an expression.
func (c *Cloner) Expr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Ident:
		cp := *x
		return &cp
	case *IntLit:
		cp := *x
		return &cp
	case *BoolLit:
		cp := *x
		return &cp
	case *NullLit:
		cp := *x
		return &cp
	case *BitsLit:
		cp := *x
		return &cp
	case *Hole:
		if prev, ok := c.Holes[x]; ok {
			return prev
		}
		// In fresh mode, distinct nodes carrying the same assigned ID
		// are pre-renaming copies of one synthesis choice (reorder
		// encoding replicas) and must unify onto one fresh node. In
		// share mode they must stay distinct: the same choice can occur
		// at several inline sites with differently renamed operands.
		if c.Mode == CloneFresh && x.ID != -1 {
			if prev, ok := c.holesByID[x.ID]; ok {
				c.Holes[x] = prev
				return prev
			}
		}
		n := &Hole{P: x.P, Width: x.Width, ID: x.ID}
		if c.Mode == CloneFresh {
			n.ID = -1
		}
		c.Holes[x] = n
		if c.Mode == CloneFresh && x.ID != -1 {
			c.holesByID[x.ID] = n
		}
		return n
	case *Regen:
		if prev, ok := c.Regens[x]; ok {
			return prev
		}
		if c.Mode == CloneFresh && x.ID != -1 {
			if prev, ok := c.regensByID[x.ID]; ok {
				c.Regens[x] = prev
				return prev
			}
		}
		n := &Regen{P: x.P, Text: x.Text, ID: x.ID}
		if c.Mode == CloneFresh {
			n.ID = -1
		}
		for _, ch := range x.Choices {
			n.Choices = append(n.Choices, c.Expr(ch))
		}
		c.Regens[x] = n
		if c.Mode == CloneFresh && x.ID != -1 {
			c.regensByID[x.ID] = n
		}
		return n
	case *Unary:
		return &Unary{P: x.P, Op: x.Op, X: c.Expr(x.X)}
	case *Binary:
		return &Binary{P: x.P, Op: x.Op, X: c.Expr(x.X), Y: c.Expr(x.Y)}
	case *FieldExpr:
		return &FieldExpr{P: x.P, X: c.Expr(x.X), Name: x.Name, Struct: x.Struct, Field: x.Field}
	case *IndexExpr:
		return &IndexExpr{P: x.P, X: c.Expr(x.X), Index: c.Expr(x.Index)}
	case *SliceExpr:
		return &SliceExpr{P: x.P, X: c.Expr(x.X), Start: c.Expr(x.Start), Len: x.Len}
	case *CallExpr:
		n := &CallExpr{P: x.P, Fun: x.Fun}
		for _, a := range x.Args {
			n.Args = append(n.Args, c.Expr(a))
		}
		return n
	case *CastExpr:
		t := *x.Type
		return &CastExpr{P: x.P, Type: &t, X: c.Expr(x.X)}
	case *NewExpr:
		n := &NewExpr{P: x.P, Type: x.Type, Site: -1}
		for _, a := range x.Args {
			n.Args = append(n.Args, c.Expr(a))
		}
		return n
	}
	panic("ast: Cloner.Expr: unknown expression")
}

// Stmt deep-copies a statement.
func (c *Cloner) Stmt(s Stmt) Stmt {
	if s == nil {
		return nil
	}
	switch x := s.(type) {
	case *Block:
		return c.Block(x)
	case *DeclStmt:
		t := *x.Type
		return &DeclStmt{P: x.P, Type: &t, Name: x.Name, Init: c.Expr(x.Init)}
	case *AssignStmt:
		return &AssignStmt{P: x.P, LHS: c.Expr(x.LHS), RHS: c.Expr(x.RHS)}
	case *IfStmt:
		return &IfStmt{P: x.P, Cond: c.Expr(x.Cond), Then: c.Block(x.Then), Else: c.Stmt(x.Else)}
	case *WhileStmt:
		return &WhileStmt{P: x.P, Cond: c.Expr(x.Cond), Body: c.Block(x.Body)}
	case *ReturnStmt:
		return &ReturnStmt{P: x.P, Val: c.Expr(x.Val)}
	case *AssertStmt:
		return &AssertStmt{P: x.P, Cond: c.Expr(x.Cond)}
	case *AtomicStmt:
		return &AtomicStmt{P: x.P, Cond: c.Expr(x.Cond), Body: c.Block(x.Body)}
	case *ForkStmt:
		return &ForkStmt{P: x.P, Var: x.Var, N: c.Expr(x.N), Body: c.Block(x.Body)}
	case *ReorderStmt:
		return &ReorderStmt{P: x.P, Body: c.Block(x.Body)}
	case *RepeatStmt:
		return &RepeatStmt{P: x.P, Count: c.Expr(x.Count), Body: c.Stmt(x.Body)}
	case *LockStmt:
		return &LockStmt{P: x.P, Target: c.Expr(x.Target), Unlock: x.Unlock}
	case *ExprStmt:
		return &ExprStmt{P: x.P, X: c.Expr(x.X)}
	}
	panic("ast: Cloner.Stmt: unknown statement")
}

// Block deep-copies a block.
func (c *Cloner) Block(b *Block) *Block {
	if b == nil {
		return nil
	}
	n := &Block{P: b.P}
	for _, s := range b.Stmts {
		n.Stmts = append(n.Stmts, c.Stmt(s))
	}
	return n
}

// CloneExpr deep-copies an expression with fresh holes.
func CloneExpr(e Expr) Expr { return NewCloner(CloneFresh).Expr(e) }

// CloneStmt deep-copies a statement with fresh holes.
func CloneStmt(s Stmt) Stmt { return NewCloner(CloneFresh).Stmt(s) }

// CloneBlock deep-copies a block with fresh holes.
func CloneBlock(b *Block) *Block { return NewCloner(CloneFresh).Block(b) }

// WalkExprs calls f on every expression nested in s, including
// sub-expressions (parents before children).
func WalkExprs(s Stmt, f func(Expr)) {
	switch x := s.(type) {
	case nil:
	case *Block:
		for _, st := range x.Stmts {
			WalkExprs(st, f)
		}
	case *DeclStmt:
		WalkExpr(x.Init, f)
	case *AssignStmt:
		WalkExpr(x.LHS, f)
		WalkExpr(x.RHS, f)
	case *IfStmt:
		WalkExpr(x.Cond, f)
		WalkExprs(x.Then, f)
		WalkExprs(x.Else, f)
	case *WhileStmt:
		WalkExpr(x.Cond, f)
		WalkExprs(x.Body, f)
	case *ReturnStmt:
		WalkExpr(x.Val, f)
	case *AssertStmt:
		WalkExpr(x.Cond, f)
	case *AtomicStmt:
		WalkExpr(x.Cond, f)
		WalkExprs(x.Body, f)
	case *ForkStmt:
		WalkExpr(x.N, f)
		WalkExprs(x.Body, f)
	case *ReorderStmt:
		WalkExprs(x.Body, f)
	case *RepeatStmt:
		WalkExpr(x.Count, f)
		WalkExprs(x.Body, f)
	case *LockStmt:
		WalkExpr(x.Target, f)
	case *ExprStmt:
		WalkExpr(x.X, f)
	}
}

// WalkExpr calls f on e and every sub-expression (parents first).
func WalkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *Regen:
		for _, c := range x.Choices {
			WalkExpr(c, f)
		}
	case *Unary:
		WalkExpr(x.X, f)
	case *Binary:
		WalkExpr(x.X, f)
		WalkExpr(x.Y, f)
	case *FieldExpr:
		WalkExpr(x.X, f)
	case *IndexExpr:
		WalkExpr(x.X, f)
		WalkExpr(x.Index, f)
	case *SliceExpr:
		WalkExpr(x.X, f)
		WalkExpr(x.Start, f)
	case *CallExpr:
		for _, a := range x.Args {
			WalkExpr(a, f)
		}
	case *CastExpr:
		WalkExpr(x.X, f)
	case *NewExpr:
		for _, a := range x.Args {
			WalkExpr(a, f)
		}
	}
}
