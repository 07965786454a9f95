// Package oracle holds deliberately naive reference implementations of
// the two components the whole reproduction depends on: the
// interleaving verifier (internal/mc) and the candidate search
// (internal/core). Both are written for obviousness, not speed — no
// partial-order reduction, no local fusion, no visited-set
// compression, no incremental hashing, no sharding, no freelists, no
// incremental SAT — and exist
// purely as differential oracles: the
// optimized engines must agree with them on every verdict. The fuzz
// targets (FuzzMCvsReference, FuzzProjection) and the differential
// tests in internal/sketches drive the comparison.
//
// The one semantic choice shared with the optimized checker is
// guard-skipping: a step whose guard conjunction is false is not
// executed at all and is not a scheduling point. This is not a
// reduction but the IR's step semantics (guards are side-effect-free
// expressions over thread-locals and holes — ir.Step), so the naive
// checker commits guard skips exactly like internal/mc does with
// NoLocalFusion set. Every guard-true step, local or shared, is a
// scheduling point here, and states are keyed on their full normalized
// contents — so CheckExhaustive's States count equals the optimized
// checker's exactly when (and only when) both mc reductions, POR and
// local fusion, are off, which is what the differential state-count
// tests pin.
package oracle

import (
	"fmt"

	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/interp"
	"psketch/internal/ir"
	"psketch/internal/state"
	"psketch/internal/sym"
)

// Verdict is the naive checker's answer.
type Verdict struct {
	OK bool
	// Failure is the first violation found (nil when OK): an assertion,
	// memory-safety, or deadlock failure.
	Failure *interp.Failure
	// Deadlock reports that the failure is a global deadlock (all
	// unfinished threads blocked).
	Deadlock bool
	// States counts the distinct (normalized) states visited.
	States int
}

// checker is one CheckExhaustive run. Everything is per-call: the
// visited set is a plain Go map and every child state is a fresh
// Clone — the obviously-correct baseline the optimized checker's
// freelists and striped tables are measured against.
type checker struct {
	l       *state.Layout
	p       *ir.Program
	cand    desugar.Candidate
	max     int
	visited map[[16]byte]bool
	verdict *Verdict
}

// CheckExhaustive explores every interleaving of the candidate with a
// tree-walking interpreter and no reductions beyond guard skipping.
// maxStates bounds the search (<= 0 means 1,000,000; the naive checker
// is for small differential instances, not Table 1 state spaces).
func CheckExhaustive(l *state.Layout, cand desugar.Candidate, maxStates int) (*Verdict, error) {
	p := l.Prog
	if !p.Concurrent() {
		return nil, fmt.Errorf("oracle: program has no fork")
	}
	if maxStates <= 0 {
		maxStates = 1_000_000
	}
	c := &checker{l: l, p: p, cand: cand, max: maxStates,
		visited: make(map[[16]byte]bool), verdict: &Verdict{OK: true}}

	st := l.NewState()
	for _, seq := range []*ir.Seq{p.GlobalInit, p.Prologue} {
		if f := c.runSeq(st, seq); f != nil {
			return &Verdict{Failure: f}, nil
		}
	}
	if err := c.dfs(st); err != nil {
		return nil, err
	}
	c.verdict.States = len(c.visited)
	return c.verdict, nil
}

// runSeq executes a deterministic phase (global init, prologue,
// epilogue) to completion.
func (c *checker) runSeq(st *state.State, seq *ir.Seq) *interp.Failure {
	ctx := interp.NewCtx(c.l, st, seq, c.cand)
	for _, step := range seq.Steps {
		ok, f := ctx.EvalGuards(step)
		if f != nil {
			return f
		}
		if !ok {
			continue
		}
		enabled, f := ctx.EvalCond(step)
		if f != nil {
			return f
		}
		if !enabled {
			return &interp.Failure{Kind: interp.FailDeadlock, Pos: step.Pos, Msg: "blocking condition false in single-threaded phase"}
		}
		if f := ctx.ExecBody(step); f != nil {
			return f
		}
	}
	return nil
}

// normalize commits guard skips for every thread: each PC is moved to
// its thread's next guard-true step (or past the end).
func (c *checker) normalize(st *state.State) *interp.Failure {
	for t, seq := range c.p.Threads {
		ctx := interp.NewCtx(c.l, st, seq, c.cand)
		for {
			pc := int(st.PCs[t])
			if pc >= len(seq.Steps) {
				break
			}
			ok, f := ctx.EvalGuards(seq.Steps[pc])
			if f != nil {
				return f
			}
			if ok {
				break
			}
			st.PCs[t] = int32(pc + 1)
		}
	}
	return nil
}

// fail records the first counterexample and stops the search.
func (c *checker) fail(f *interp.Failure, deadlock bool) {
	if c.verdict.OK {
		c.verdict.OK = false
		c.verdict.Failure = f
		c.verdict.Deadlock = deadlock
	}
}

// dfs explores the interleavings from st (which it owns and may
// mutate). The search stops at the first counterexample.
func (c *checker) dfs(st *state.State) error {
	if f := c.normalize(st); f != nil {
		c.fail(f, false)
		return nil
	}
	key := st.Key()
	if c.visited[key] {
		return nil
	}
	c.visited[key] = true
	if len(c.visited) > c.max {
		return fmt.Errorf("oracle: state space exceeds %d states", c.max)
	}

	unfinished := 0
	var enabled []int
	for t, seq := range c.p.Threads {
		pc := int(st.PCs[t])
		if pc >= len(seq.Steps) {
			continue
		}
		unfinished++
		step := seq.Steps[pc]
		if step.Cond == nil {
			enabled = append(enabled, t)
			continue
		}
		ctx := interp.NewCtx(c.l, st, seq, c.cand)
		ok, f := ctx.EvalCond(step)
		if f != nil {
			c.fail(f, false)
			return nil
		}
		if ok {
			enabled = append(enabled, t)
		}
	}

	if unfinished == 0 {
		if f := c.runSeq(st.Clone(), c.p.Epilogue); f != nil {
			c.fail(f, false)
		}
		return nil
	}
	if len(enabled) == 0 {
		c.fail(&interp.Failure{Kind: interp.FailDeadlock, Msg: "all unfinished threads blocked"}, true)
		return nil
	}
	for _, t := range enabled {
		if !c.verdict.OK {
			return nil
		}
		child := st.Clone()
		seq := c.p.Threads[t]
		pc := int(child.PCs[t])
		ctx := interp.NewCtx(c.l, child, seq, c.cand)
		if f := ctx.ExecBody(seq.Steps[pc]); f != nil {
			c.fail(f, false)
			return nil
		}
		child.PCs[t] = int32(pc + 1)
		if err := c.dfs(child); err != nil {
			return err
		}
	}
	return nil
}

// SearchResult is the enumerative searcher's answer.
type SearchResult struct {
	Resolved  bool
	Candidate desugar.Candidate // first correct assignment in lexicographic order
	// Space is the full assignment count, Valid the structurally valid
	// subset, Checked how many ran through the exhaustive checker.
	Space   int
	Valid   int
	Checked int
}

// holeDims returns the enumeration radix of every hole: declared
// choices for generator holes, the full bit range otherwise.
func holeDims(sk *desugar.Sketch) []int64 {
	dims := make([]int64, len(sk.Holes))
	for i, m := range sk.Holes {
		if m.Kind == desugar.HoleChoice {
			dims[i] = int64(m.Choices)
		} else {
			dims[i] = int64(1) << uint(m.Bits)
		}
	}
	return dims
}

// structuralFilter evaluates the sketch's structural constraints
// (reorder permutations, repeat bounds, generator ranges) on concrete
// candidates, reusing the same circuit encoding the CEGIS engine
// solves — but only ever evaluating it, never solving.
type structuralFilter struct {
	b     *circuit.Builder
	holes []circuit.Word
	lits  []circuit.Lit
}

func newStructuralFilter(sk *desugar.Sketch, l *state.Layout) (*structuralFilter, error) {
	f := &structuralFilter{b: circuit.NewBuilder()}
	f.holes = sym.HoleInputs(f.b, sk)
	ev := sym.New(f.b, l, f.holes)
	for _, c := range sk.Constraints {
		f.lits = append(f.lits, ev.EvalConstraint(c))
	}
	if err := ev.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *structuralFilter) valid(cand desugar.Candidate) bool {
	asn := map[circuit.Lit]bool{}
	for i, w := range f.holes {
		for j, in := range w {
			asn[in] = (cand.Value(i)>>uint(j))&1 == 1
		}
	}
	for _, lit := range f.lits {
		if !f.b.Eval(asn, lit) {
			return false
		}
	}
	return true
}

// SearchEnumerative is the reference synthesizer for concurrent
// sketches with small hole spaces: it enumerates every hole assignment
// in lexicographic order, filters by the structural constraints, and
// model checks each survivor exhaustively. maxSpace bounds the
// assignment count (<= 0 means 1<<16), maxStates bounds each check.
// The verdict is definitive either way: Resolved with the first
// correct candidate, or an exhaustive NO — which is exactly what the
// CEGIS engine's UNSAT exit claims.
func SearchEnumerative(sk *desugar.Sketch, maxSpace, maxStates int) (*SearchResult, error) {
	if maxSpace <= 0 {
		maxSpace = 1 << 16
	}
	prog, err := ir.Lower(sk)
	if err != nil {
		return nil, err
	}
	l, err := state.NewLayout(prog)
	if err != nil {
		return nil, err
	}
	dims := holeDims(sk)
	space := 1
	for _, d := range dims {
		if int64(space)*d > int64(maxSpace) {
			return nil, fmt.Errorf("oracle: hole space exceeds %d assignments", maxSpace)
		}
		space *= int(d)
	}
	filter, err := newStructuralFilter(sk, l)
	if err != nil {
		return nil, err
	}

	res := &SearchResult{Space: space}
	cand := make(desugar.Candidate, len(dims))
	for idx := 0; idx < space; idx++ {
		rem := idx
		for i, d := range dims {
			cand[i] = int64(rem % int(d))
			rem /= int(d)
		}
		if !filter.valid(cand) {
			continue
		}
		res.Valid++
		v, err := CheckExhaustive(l, cand, maxStates)
		if err != nil {
			return nil, err
		}
		res.Checked++
		if v.OK {
			res.Resolved = true
			res.Candidate = append(desugar.Candidate(nil), cand...)
			return res, nil
		}
	}
	return res, nil
}
