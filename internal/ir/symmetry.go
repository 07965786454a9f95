package ir

import (
	"sort"

	"psketch/internal/ast"
	"psketch/internal/desugar"
	"psketch/internal/token"
	"psketch/internal/types"
)

// This file detects ring symmetry between forked threads under a fixed
// candidate: groups of threads that run the same program text and whose
// thread-dependence is limited to a rotation of the shared state. The
// model checker uses the result to canonicalize each search state to an
// orbit representative before every visited-set lookup (internal/mc's
// symmetry support), which collapses permutation-equivalent
// interleavings.
//
// The analysis compares consecutive class members' step lists in
// lockstep, constant-folding each side with its own thread's analyzer
// (the same folding the footprint analysis uses, so fork indices and
// proven-constant locals resolve per thread). Where the folded values
// agree the threads are literally identical; where they diverge the
// divergence must be one of the shapes a state automorphism can absorb:
//
//   - a folded index into a global array (thread a touches g[i], thread
//     b touches g[j]): recorded as a cell move i -> j of the generator;
//   - a folded field receiver or allocation site (distinct arena
//     slots): recorded as a slot move, completed into a heap
//     isomorphism by the checker from the root state;
//   - the defining assignment of a proven-constant scalar local (the
//     fork index and values computed from it): recorded as a
//     fork-local, value-rewritten when a thread block is rotated;
//   - __tid, only inside the lock/unlock step shapes of the Figure 7
//     encoding: absorbed by renaming thread ids in lock-owner cells.
//
// Anything else that diverges — a guard with different truth values, a
// fork-derived value flowing into a non-constant expression, a dynamic
// index into a rotated array — rejects the class: detection is
// best-effort and sound, never required for correctness.

// SymmetryDebug, when set, receives one line per rejected candidate
// class explaining which soundness check failed (used by tests and by
// -v tooling to explain why symmetry did not engage).
var SymmetryDebug func(format string, args ...any)

func symDebugf(format string, args ...any) {
	if SymmetryDebug != nil {
		SymmetryDebug(format, args...)
	}
}

// SymCellPair is one generator move between cells of a global array:
// Program.Globals[Global] cell From maps to cell To.
type SymCellPair struct {
	Global   int
	From, To int
}

// SymSlotPair is one generator move between arena slots of a struct,
// derived from paired allocation sites or folded field receivers.
type SymSlotPair struct {
	Struct   string
	From, To int
}

// SymSlotRef names an arena slot that re-executed code outside the
// class refers to by constant; the heap isomorphism must fix it.
type SymSlotRef struct {
	Struct string
	Slot   int
}

// SymForkLocal is a scalar local that is compile-time constant in every
// class member but with member-dependent values (the fork index and its
// derivatives). Rotating a thread block rewrites the local's cell to
// the destination member's value once its defining step has executed;
// before that the cell still holds its initial zero in every member.
type SymForkLocal struct {
	Local   int     // local index (positional; names differ per member)
	DefStep int     // the single, unguarded, top-level defining step
	Vals    []int64 // value per member, parallel to Members
}

// SymClass is one ring of permutation-equivalent threads, together with
// the generator data the checker needs to build the automorphism. The
// full group is the cyclic group generated by rotating Members by one.
type SymClass struct {
	Members    []int // thread indices in ring order (ascending)
	Cells      []SymCellPair
	Slots      []SymSlotPair
	ForkLocals []SymForkLocal
	FixedSlots []SymSlotRef
	// EpiExempt lists the epilogue steps that touch rotated global
	// cells but were matched, pairwise under the generator, as pure
	// unguarded single-assertion steps (so the epilogue verdict is
	// rotation-invariant). Any other epilogue contact with rotated
	// cells rejects the class.
	EpiExempt []int
}

// Symmetry detects the ring-symmetric thread classes of p under cand.
// An empty result means no exploitable symmetry was proven; every
// returned class passed the structural soundness checks (the checker
// adds the state-dependent ones: completing the slot moves into a heap
// isomorphism and verifying the automorphism fixes the root state).
func Symmetry(p *Program, cand desugar.Candidate) []SymClass {
	if len(p.Threads) < 2 {
		return nil
	}
	an := make([]*fpAnalyzer, len(p.Threads))
	for t, seq := range p.Threads {
		an[t] = &fpAnalyzer{p: p, seq: seq, cand: cand}
		an[t].findConstLocals()
	}

	// Group threads by template shape: step count plus the local
	// signature. Lowering suffixes every fresh temporary with the
	// sequence name, so locals are matched positionally by type, never
	// by name (and never by step label, which embeds folded literals).
	groups := map[string][]int{}
	var order []string
	for t, seq := range p.Threads {
		key := templateKey(seq)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], t)
	}

	var classes []SymClass
	claimed := map[int]bool{} // globals rotated by an earlier class
	for _, key := range order {
		members := groups[key]
		if len(members) < 2 {
			continue
		}
		cl, ok := buildClass(p, cand, an, members)
		if !ok {
			continue
		}
		// Classes must rotate disjoint globals: their canonical
		// minimizations are then independent and compose freely.
		conflict := false
		for _, cp := range cl.Cells {
			if claimed[cp.Global] {
				conflict = true
			}
		}
		if conflict {
			continue
		}
		for _, cp := range cl.Cells {
			claimed[cp.Global] = true
		}
		classes = append(classes, *cl)
	}
	return classes
}

func templateKey(seq *Seq) string {
	key := []byte{byte(len(seq.Steps)), byte(len(seq.Steps) >> 8)}
	for _, v := range seq.Locals {
		key = append(key, byte(v.Type.Base), byte(v.Type.Len))
		key = append(key, v.Type.Struct...)
		key = append(key, 0)
	}
	return string(key)
}

type cellKey struct{ g, from int }
type slotKey struct {
	s    string
	from int
}

// symAcc accumulates the generator's moves. Both maps are kept
// bijective as they grow (a conflicting or non-injective constraint
// fails the class).
type symAcc struct {
	cells   map[cellKey]int
	cellInv map[cellKey]int
	slots   map[slotKey]int
	slotInv map[slotKey]int
	dyn     map[int]bool // globals indexed dynamically by class threads
}

func newSymAcc() *symAcc {
	return &symAcc{
		cells:   map[cellKey]int{},
		cellInv: map[cellKey]int{},
		slots:   map[slotKey]int{},
		slotInv: map[slotKey]int{},
		dyn:     map[int]bool{},
	}
}

func (acc *symAcc) addCell(g, from, to int) bool {
	k := cellKey{g, from}
	if old, ok := acc.cells[k]; ok {
		return old == to
	}
	ik := cellKey{g, to}
	if _, ok := acc.cellInv[ik]; ok {
		return false
	}
	acc.cells[k] = to
	acc.cellInv[ik] = from
	return true
}

func (acc *symAcc) addSlot(sn string, from, to int) bool {
	k := slotKey{sn, from}
	if old, ok := acc.slots[k]; ok {
		return old == to
	}
	ik := slotKey{sn, to}
	if _, ok := acc.slotInv[ik]; ok {
		return false
	}
	acc.slots[k] = to
	acc.slotInv[ik] = from
	return true
}

// buildClass runs the pairwise lockstep comparison around the ring
// (member i against member i+1, wrapping) and assembles the generator.
func buildClass(p *Program, cand desugar.Candidate, an []*fpAnalyzer, members []int) (*SymClass, bool) {
	k := len(members)
	acc := newSymAcc()
	for i := 0; i < k; i++ {
		c := &symCmp{p: p, a: an[members[i]], b: an[members[(i+1)%k]], acc: acc}
		if !c.seqs() {
			symDebugf("sym: class %v: threads %d/%d do not match", members, members[i], members[(i+1)%k])
			return nil, false
		}
	}

	cl := &SymClass{Members: members}
	for from, to := range acc.cells {
		cl.Cells = append(cl.Cells, SymCellPair{Global: from.g, From: from.from, To: to})
	}
	sort.Slice(cl.Cells, func(i, j int) bool {
		a, b := cl.Cells[i], cl.Cells[j]
		if a.Global != b.Global {
			return a.Global < b.Global
		}
		return a.From < b.From
	})
	for from, to := range acc.slots {
		cl.Slots = append(cl.Slots, SymSlotPair{Struct: from.s, From: from.from, To: to})
	}
	sort.Slice(cl.Slots, func(i, j int) bool {
		a, b := cl.Slots[i], cl.Slots[j]
		if a.Struct != b.Struct {
			return a.Struct < b.Struct
		}
		return a.From < b.From
	})

	// A rotated global must never be indexed dynamically: the access
	// would read different cells in permuted states, so the footprint
	// push-forward argument breaks down.
	movedGlobals := map[int]bool{}
	for _, cp := range cl.Cells {
		movedGlobals[cp.Global] = true
	}
	for g := range acc.dyn {
		if movedGlobals[g] {
			symDebugf("sym: class %v: rotated global %s indexed dynamically", members, p.Globals[g].Name)
			return nil, false
		}
	}

	if !collectForkLocals(p, an, members, cl) {
		symDebugf("sym: class %v: fork-local validation failed", members)
		return nil, false
	}

	// Sequences outside the class must not touch rotated global cells.
	// Arena slots are exempt: references travel through the heap
	// isomorphism, and constant slot references outside the class are
	// pinned via FixedSlots (the checker rejects the class if the
	// isomorphism moves a pinned slot).
	inClass := map[int]bool{}
	for _, m := range members {
		inClass[m] = true
	}
	movedCell := func(lc Loc) bool {
		if lc.Struct != "" {
			return false
		}
		for _, cp := range cl.Cells {
			if cp.Global == lc.Global && ((cp.From >= lc.Lo && cp.From < lc.Hi) || (cp.To >= lc.Lo && cp.To < lc.Hi)) {
				return true
			}
		}
		return false
	}
	for t, seq := range p.Threads {
		if inClass[t] {
			continue
		}
		if !checkOutsideSeq(p, an[t], seq, cl, movedCell) {
			symDebugf("sym: class %v: outside thread %d touches rotated state", members, t)
			return nil, false
		}
	}

	// Class threads may use __tid and _lock only inside the lock and
	// unlock step shapes (where renaming lock-owner ids absorbs them).
	for _, m := range members {
		for _, s := range p.Threads[m].Steps {
			if !stepTidLockOK(an[m], s, false) {
				symDebugf("sym: class %v: thread %d uses __tid/_lock outside lock shapes", members, m)
				return nil, false
			}
		}
	}

	if !matchEpilogue(p, cand, cl, movedCell) {
		symDebugf("sym: class %v: epilogue not rotation-invariant", members)
		return nil, false
	}
	return cl, true
}

// collectForkLocals finds the scalar locals that are constant in every
// member with member-dependent values and validates their defining
// steps: single, top-level, unguarded — so "pc past the def" alone
// determines the cell's value, and rotating a block can rewrite it.
func collectForkLocals(p *Program, an []*fpAnalyzer, members []int, cl *SymClass) bool {
	seq0 := p.Threads[members[0]]
	for li, v := range seq0.Locals {
		if v.Type.Base == types.Ref || v.Type.IsArray() {
			continue
		}
		vals := make([]int64, len(members))
		nConst := 0
		for i, m := range members {
			if an[m].known[li] {
				vals[i] = an[m].consts[li]
				nConst++
			}
		}
		if nConst == 0 {
			continue
		}
		if nConst < len(members) {
			return false // constness itself is thread-dependent
		}
		same := true
		for _, val := range vals {
			if val != vals[0] {
				same = false
			}
		}
		if same {
			continue // identical constant: no rewrite needed
		}
		def := -1
		for si, s := range seq0.Steps {
			for _, st := range s.Body {
				if as, ok := st.(*ast.AssignStmt); ok {
					if id, ok := as.LHS.(*ast.Ident); ok && localOf(id) == li {
						def = si
					}
				}
			}
			if def >= 0 {
				if len(s.Guards) > 0 {
					return false
				}
				break
			}
		}
		if def < 0 {
			return false
		}
		cl.ForkLocals = append(cl.ForkLocals, SymForkLocal{Local: li, DefStep: def, Vals: vals})
	}
	return true
}

// checkOutsideSeq validates a non-class thread: its footprints must
// avoid rotated global cells, its _lock/__tid usage is restricted, and
// its allocation sites are pinned.
func checkOutsideSeq(p *Program, a *fpAnalyzer, seq *Seq, cl *SymClass, movedCell func(Loc) bool) bool {
	for _, s := range seq.Steps {
		fp := a.step(s)
		if fp.All && len(cl.Cells) > 0 {
			return false
		}
		for _, lc := range fp.Reads {
			if movedCell(lc) {
				return false
			}
		}
		for _, lc := range fp.Writes {
			if movedCell(lc) {
				return false
			}
		}
		if !stepTidLockOK(a, s, true) {
			return false
		}
		if !collectSites(p, a, s, cl) {
			return false
		}
	}
	return true
}

// collectSites pins the allocation sites a step outside the class
// names (the prologue and global initializers are excluded: they run
// once before the search, so their sites may rotate freely).
func collectSites(p *Program, a *fpAnalyzer, s *Step, cl *SymClass) bool {
	ok := true
	visit := func(e ast.Expr) {
		if n, isNew := e.(*ast.NewExpr); isNew {
			if n.Site < 0 || n.Site >= len(p.Sites) {
				ok = false
				return
			}
			site := p.Sites[n.Site]
			cl.FixedSlots = append(cl.FixedSlots, SymSlotRef{Struct: site.Struct, Slot: site.Slot})
		}
	}
	for _, g := range s.Guards {
		walkResolvedExpr(a, g, visit)
	}
	if s.Cond != nil {
		walkResolvedExpr(a, s.Cond, visit)
	}
	for _, st := range s.Body {
		walkResolved(a, st, visit)
	}
	return ok
}

// matchEpilogue checks that the epilogue's contact with rotated global
// cells is confined to pure, unguarded, single-assertion steps that map
// onto each other under the generator. Reads of unrotated cells
// evaluate identically in permuted states, and a set of pure asserts
// over constant final state is order-independent, so a bijective
// matching makes the epilogue verdict rotation-invariant. Matched step
// indices land in cl.EpiExempt; any other contact rejects the class.
func matchEpilogue(p *Program, cand desugar.Candidate, cl *SymClass, movedCell func(Loc) bool) bool {
	epi := p.Epilogue
	if epi == nil {
		return true
	}
	a := &fpAnalyzer{p: p, seq: epi, cand: cand}
	a.findConstLocals()

	var touching []int
	for si, s := range epi.Steps {
		if !stepTidLockOK(a, s, true) {
			return false
		}
		if !collectSites(p, a, s, cl) {
			return false
		}
		fp := a.step(s)
		if fp.All {
			if len(cl.Cells) > 0 {
				return false
			}
			continue
		}
		touches := false
		for _, lc := range fp.Reads {
			if movedCell(lc) {
				touches = true
			}
		}
		for _, lc := range fp.Writes {
			if movedCell(lc) {
				return false // writes to rotated cells are never invariant
			}
		}
		if !touches {
			continue
		}
		if len(s.Guards) > 0 || s.Cond != nil || len(s.Body) != 1 {
			return false
		}
		if _, isAssert := s.Body[0].(*ast.AssertStmt); !isAssert {
			return false
		}
		touching = append(touching, si)
	}

	// Each touching assert needs exactly one generator image among the
	// touching asserts, and the matching must be a bijection.
	used := map[int]bool{}
	for _, si := range touching {
		found := -1
		for _, sj := range touching {
			if used[sj] {
				continue
			}
			c := &symCmp{p: p, a: a, b: a, acc: newSymAcc()}
			if !c.step(epi.Steps[si], epi.Steps[sj]) {
				continue
			}
			// The pairs the match induced must agree exactly with the
			// generator; any slot move or dynamic rotated access fails.
			ok := len(c.acc.slots) == 0
			for from, to := range c.acc.cells {
				if cl.cellImage(from.g, from.from) != to {
					ok = false
				}
			}
			for g := range c.acc.dyn {
				for _, cp := range cl.Cells {
					if cp.Global == g {
						ok = false
					}
				}
			}
			if ok {
				found = sj
				break
			}
		}
		if found < 0 {
			return false
		}
		used[found] = true
		cl.EpiExempt = append(cl.EpiExempt, si)
	}
	return true
}

// cellImage returns the generator image of a global cell, or -1.
func (cl *SymClass) cellImage(g, from int) int {
	for _, cp := range cl.Cells {
		if cp.Global == g && cp.From == from {
			return cp.To
		}
	}
	return -1
}

// ------------------------------------------------------- tid/lock shapes

// stepTidLockOK validates every __tid and _lock occurrence of a step:
// both are permitted only inside the exact lock/unlock shapes of the
// Figure 7 lowering (where renaming lock-owner thread ids absorbs
// them); with allowCmp0 (sequences outside the class, whose tid the
// renaming fixes — but whose _lock reads must still be id-insensitive)
// a _lock field may additionally be compared against the literal 0.
func stepTidLockOK(a *fpAnalyzer, s *Step, allowCmp0 bool) bool {
	if isLockShape(a, s) || isUnlockShape(a, s) {
		return true
	}
	bad := false
	var scanE func(e ast.Expr)
	scanE = func(e ast.Expr) {
		switch x := a.resolveRegen(e).(type) {
		case nil:
		case *ast.IntLit, *ast.BoolLit, *ast.NullLit, *ast.BitsLit, *ast.Hole:
		case *ast.Ident:
			if x.Name == TidVar {
				bad = true
			}
		case *ast.Unary:
			scanE(x.X)
		case *ast.Binary:
			if allowCmp0 && (x.Op == token.EQ || x.Op == token.NEQ) {
				if fe, zero := lockCmp0(a, x); fe != nil && zero {
					scanE(fe.X) // the receiver is still scanned
					return
				}
			}
			scanE(x.X)
			scanE(x.Y)
		case *ast.FieldExpr:
			if x.Name == types.LockField {
				bad = true
			}
			scanE(x.X)
		case *ast.IndexExpr:
			scanE(x.X)
			scanE(x.Index)
		case *ast.SliceExpr:
			scanE(x.X)
			scanE(x.Start)
		case *ast.CallExpr:
			for _, arg := range x.Args {
				scanE(arg)
			}
		case *ast.CastExpr:
			scanE(x.X)
		case *ast.NewExpr:
			for _, arg := range x.Args {
				scanE(arg)
			}
		default:
			bad = true
		}
	}
	var scanS func(st ast.Stmt)
	scanS = func(st ast.Stmt) {
		switch x := st.(type) {
		case *ast.Block:
			for _, s2 := range x.Stmts {
				scanS(s2)
			}
		case *ast.AssignStmt:
			scanE(x.LHS)
			scanE(x.RHS)
		case *ast.AssertStmt:
			scanE(x.Cond)
		case *ast.ExprStmt:
			scanE(x.X)
		case *ast.IfStmt:
			scanE(x.Cond)
			scanS(x.Then)
			if x.Else != nil {
				scanS(x.Else)
			}
		default:
			bad = true
		}
	}
	for _, g := range s.Guards {
		scanE(g)
	}
	if s.Cond != nil {
		scanE(s.Cond)
	}
	for _, st := range s.Body {
		scanS(st)
	}
	return !bad
}

// lockCmp0 matches `x._lock == 0` / `0 == x._lock` (also !=), returning
// the field expression and whether the other side is the literal 0.
func lockCmp0(a *fpAnalyzer, b *ast.Binary) (*ast.FieldExpr, bool) {
	try := func(l, r ast.Expr) (*ast.FieldExpr, bool) {
		fe, ok := a.resolveRegen(l).(*ast.FieldExpr)
		if !ok || fe.Name != types.LockField {
			return nil, false
		}
		lit, ok := a.resolveRegen(r).(*ast.IntLit)
		return fe, ok && lit.Val == 0
	}
	if fe, ok := try(b.X, b.Y); fe != nil {
		return fe, ok
	}
	return try(b.Y, b.X)
}

func isLockShape(a *fpAnalyzer, s *Step) bool {
	if s.Cond == nil || len(s.Body) != 1 {
		return false
	}
	b, ok := a.resolveRegen(s.Cond).(*ast.Binary)
	if !ok || b.Op != token.EQ {
		return false
	}
	if fe, zero := lockCmp0(a, b); fe == nil || !zero {
		return false
	}
	as, ok := s.Body[0].(*ast.AssignStmt)
	if !ok {
		return false
	}
	fe, ok := a.resolveRegen(as.LHS).(*ast.FieldExpr)
	if !ok || fe.Name != types.LockField {
		return false
	}
	id, ok := a.resolveRegen(as.RHS).(*ast.Ident)
	return ok && id.Name == TidVar
}

func isUnlockShape(a *fpAnalyzer, s *Step) bool {
	if s.Cond != nil || len(s.Body) != 2 {
		return false
	}
	asrt, ok := s.Body[0].(*ast.AssertStmt)
	if !ok {
		return false
	}
	b, ok := a.resolveRegen(asrt.Cond).(*ast.Binary)
	if !ok || b.Op != token.EQ {
		return false
	}
	fe1, ok := a.resolveRegen(b.X).(*ast.FieldExpr)
	if !ok || fe1.Name != types.LockField {
		return false
	}
	id, ok := a.resolveRegen(b.Y).(*ast.Ident)
	if !ok || id.Name != TidVar {
		return false
	}
	as, ok := s.Body[1].(*ast.AssignStmt)
	if !ok {
		return false
	}
	fe2, ok := a.resolveRegen(as.LHS).(*ast.FieldExpr)
	if !ok || fe2.Name != types.LockField {
		return false
	}
	lit, ok := a.resolveRegen(as.RHS).(*ast.IntLit)
	return ok && lit.Val == 0
}

// walkResolved visits every resolved expression node of a statement.
func walkResolved(a *fpAnalyzer, st ast.Stmt, f func(ast.Expr)) {
	switch x := st.(type) {
	case *ast.Block:
		for _, s2 := range x.Stmts {
			walkResolved(a, s2, f)
		}
	case *ast.AssignStmt:
		walkResolvedExpr(a, x.LHS, f)
		walkResolvedExpr(a, x.RHS, f)
	case *ast.AssertStmt:
		walkResolvedExpr(a, x.Cond, f)
	case *ast.ExprStmt:
		walkResolvedExpr(a, x.X, f)
	case *ast.IfStmt:
		walkResolvedExpr(a, x.Cond, f)
		walkResolved(a, x.Then, f)
		if x.Else != nil {
			walkResolved(a, x.Else, f)
		}
	}
}

func walkResolvedExpr(a *fpAnalyzer, e ast.Expr, f func(ast.Expr)) {
	if e == nil {
		return
	}
	r := a.resolveRegen(e)
	f(r)
	switch x := r.(type) {
	case *ast.Unary:
		walkResolvedExpr(a, x.X, f)
	case *ast.Binary:
		walkResolvedExpr(a, x.X, f)
		walkResolvedExpr(a, x.Y, f)
	case *ast.FieldExpr:
		walkResolvedExpr(a, x.X, f)
	case *ast.IndexExpr:
		walkResolvedExpr(a, x.X, f)
		walkResolvedExpr(a, x.Index, f)
	case *ast.SliceExpr:
		walkResolvedExpr(a, x.X, f)
		walkResolvedExpr(a, x.Start, f)
	case *ast.CallExpr:
		for _, arg := range x.Args {
			walkResolvedExpr(a, arg, f)
		}
	case *ast.CastExpr:
		walkResolvedExpr(a, x.X, f)
	case *ast.NewExpr:
		for _, arg := range x.Args {
			walkResolvedExpr(a, arg, f)
		}
	}
}
