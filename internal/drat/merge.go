package drat

import "sync"

// This file extends the Recorder for cube-and-conquer CEGIS
// (internal/cube): several solver groups — one per cube of the
// candidate space — log into ONE Recorder through per-cube Namespaces,
// and a top-level resolution over the cube literals closes the merged
// proof so the ordinary backward checker (Certificate.Verify) replays
// the whole-space UNSAT verdict.
//
// The variable problem a Namespace solves: every cube's solver encodes
// the same sketch, so the variables allocated during setup (hole bits,
// structural constraints) are a deterministic common prefix with the
// same meaning everywhere. But as CEGIS progresses, each cube encodes
// its own projection circuits, and the Tseitin variables above the
// prefix diverge — variable 5000 in cube 2's solver and in cube 3's
// solver are different nodes. A Namespace maps everything above the
// common prefix into a fresh per-cube block of the merged certificate's
// variable space, leaving the prefix untouched, so all logs land in one
// consistent namespace and the cube-refutation clauses (which are over
// hole variables, inside the prefix) resolve across cubes.
//
// The merge is sound for the same reason portfolio sharing is: a lemma
// never depends on Solve assumptions (first-UIP learning resolves only
// on reason clauses), and internal/cube constrains each worker to its
// cube via assumptions, never clauses. So every lemma every cube learns
// is a consequence of the premises stamped before it, and the
// Recorder's mutex linearizes all cubes into one derivation order.

// Sink is the proof-logging interface the SAT backends write through:
// either a Recorder directly, or a Namespace of one (internal/cube).
type Sink interface {
	// Attach registers one more logging solver and returns the total.
	Attach() int
	// AddPremise logs one problem clause.
	AddPremise(lits []int)
	// AddLemma logs one learnt clause; the call order is the merged
	// derivation order, so callers stamp a lemma before publishing it.
	AddLemma(lits []int)
	// DeleteLemma logs a clause deletion (dropped when the underlying
	// Recorder is shared by several solvers).
	DeleteLemma(lits []int)
}

var (
	_ Sink = (*Recorder)(nil)
	_ Sink = (*Namespace)(nil)
)

// allocVar hands out a fresh merged-space variable above the common
// prefix (and above every variable previously allocated by any
// namespace of this recorder).
func (r *Recorder) allocVar(common int) int {
	r.mu.Lock()
	if r.nextVar < common {
		r.nextVar = common
	}
	r.nextVar++
	v := r.nextVar
	r.mu.Unlock()
	return v
}

// Namespace returns a Sink that logs into r, remapping every variable
// above common (1-based DIMACS, so "above" means > common) into a
// fresh block of the merged variable space. Variables ≤ common pass
// through unchanged. One Namespace per solver group; a Namespace is
// safe for concurrent use by the group's workers.
func (r *Recorder) Namespace(common int) *Namespace {
	return &Namespace{r: r, common: common, m: map[int]int{}}
}

// Namespace remaps one solver group's diverged variables into the
// shared Recorder. See the file comment.
type Namespace struct {
	r      *Recorder
	common int

	mu  sync.Mutex
	m   map[int]int
	buf []int
}

// remap is called with ns.mu held; the returned slice is ns.buf, valid
// until the next remap (the Recorder copies what it is handed).
func (n *Namespace) remap(lits []int) []int {
	n.buf = n.buf[:0]
	for _, l := range lits {
		v, neg := l, false
		if v < 0 {
			v, neg = -v, true
		}
		if v > n.common {
			mv, ok := n.m[v]
			if !ok {
				mv = n.r.allocVar(n.common)
				n.m[v] = mv
			}
			v = mv
		}
		if neg {
			v = -v
		}
		n.buf = append(n.buf, v)
	}
	return n.buf
}

// Attach registers one more solver on the underlying Recorder.
func (n *Namespace) Attach() int { return n.r.Attach() }

// AddPremise logs a problem clause, remapped into the merged space.
func (n *Namespace) AddPremise(lits []int) {
	n.mu.Lock()
	n.r.AddPremise(n.remap(lits))
	n.mu.Unlock()
}

// AddLemma logs a learnt clause, remapped into the merged space.
func (n *Namespace) AddLemma(lits []int) {
	n.mu.Lock()
	n.r.AddLemma(n.remap(lits))
	n.mu.Unlock()
}

// DeleteLemma forwards a deletion (the shared Recorder drops it when
// more than one solver is attached, which is always the case in a cube
// merge).
func (n *Namespace) DeleteLemma(lits []int) {
	n.mu.Lock()
	n.r.DeleteLemma(n.remap(lits))
	n.mu.Unlock()
}

// CubeClause returns the refutation clause of cube index i over the
// given cube variables (positive DIMACS indices): the negation of the
// assignment in which bit j of i gives vars[j]'s polarity. When cube
// i's CEGIS worker exhausts its sub-space, this clause is RUP with
// respect to the merged log — the worker's UNSAT-under-cube-assumptions
// verdict means unit propagation from the cube literals conflicts — and
// is appended as a lemma.
func CubeClause(vars []int, i int) []int {
	out := make([]int, len(vars))
	for j, v := range vars {
		if i>>uint(j)&1 == 1 {
			out[j] = -v
		} else {
			out[j] = v
		}
	}
	return out
}

// CubeTree returns the interior clauses of the top-level resolution
// that closes a full 2^k cube split: for every proper prefix
// assignment (deepest first), the clause negating it. Each clause is
// RUP given the two clauses extending the prefix by one more variable,
// so appending the tree after all 2^k CubeClause lemmas makes the
// empty clause itself RUP (the two length-1 clauses are conflicting
// units), which is exactly what Certificate.Verify checks first.
func CubeTree(vars []int) [][]int {
	var out [][]int
	for d := len(vars) - 1; d >= 1; d-- {
		for m := 0; m < 1<<uint(d); m++ {
			out = append(out, CubeClause(vars[:d], m))
		}
	}
	return out
}
