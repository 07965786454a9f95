// Package drat produces and checks clausal UNSAT certificates for the
// CDCL solver (internal/sat), so the CEGIS loop's "no candidate
// exists" verdicts — the load-bearing NO answers of the reproduction —
// carry machine-checked evidence instead of resting on the solver's
// correctness (the same role certificates play for SynRG-style
// quantified synthesis loops; see PAPERS.md).
//
// A Recorder collects, in one globally ordered log, the problem
// clauses (premises) and every clause the solver learns (lemmas). The
// order is the point: a sharing SAT portfolio has several workers
// learning concurrently, and a clause imported from the shared pool is
// only derivable from clauses stamped before it. Each worker logs its
// lemmas through the same Recorder, whose mutex assigns the global
// stamp at learn time — before the clause is published to the pool —
// so the merged log linearizes the portfolio's distributed derivation:
// every lemma is a reverse-unit-propagation (RUP) consequence of the
// premises plus earlier lemmas, regardless of which worker learned it
// and which workers later imported it.
//
// A Certificate snapshots the log together with the assumptions of one
// UNSAT Solve call. Verify replays it backward, DRAT-trim style: the
// empty clause is checked first (unit propagation over premises,
// assumption units, and all live lemmas must conflict), the clauses
// used in that conflict are marked core, and then the lemmas are
// unwound in reverse — each core lemma must itself be RUP with respect
// to the clauses before it, marking its own antecedents core in turn.
// Non-core lemmas are skipped entirely, which is what makes backward
// checking cheap: CEGIS solves learn thousands of lemmas, few of which
// feed the final conflict. Assumption units participate only in the
// empty-clause step; lemmas must derive from the formula alone, which
// is exactly the property that makes portfolio clause sharing sound.
//
// Deletion lines (the "D" of DRAT) are honored when replaying a
// single-solver proof and dropped by the Recorder when several solvers
// share it: a portfolio worker's reduceDB only removes the clause from
// that worker's database, while the merged log is the union of all
// workers', so applying one worker's deletions globally would be
// unsound. Ignoring deletions never admits a bogus proof — it only
// leaves more clauses available to propagation.
//
// Literals use the DIMACS convention throughout: variable v (0-based
// in the solver) appears as ±(v+1), and a clause is a plain []int.
package drat

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// op is one proof step: a lemma addition or a clause deletion.
type op struct {
	lits []int
	del  bool
}

// Recorder accumulates premises and proof steps under a mutex. One
// Recorder may be shared by every worker of a SAT portfolio; Attach
// counts the solvers logging into it.
type Recorder struct {
	mu       sync.Mutex
	premises [][]int
	steps    []op
	attached int
	lemmas   int
}

// NewRecorder returns an empty proof log.
func NewRecorder() *Recorder { return &Recorder{} }

// Attach registers one more solver logging into the Recorder and
// reports how many are now attached. Deletions are honored only while
// exactly one solver is attached (see the package comment).
func (r *Recorder) Attach() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attached++
	return r.attached
}

// AddPremise logs one problem clause, exactly as given to the solver
// (before any normalization).
func (r *Recorder) AddPremise(lits []int) {
	cp := append([]int(nil), lits...)
	r.mu.Lock()
	r.premises = append(r.premises, cp)
	r.mu.Unlock()
}

// AddLemma logs one learnt clause. The stamp order of concurrent
// AddLemma calls is the merged derivation order; callers must log a
// lemma before making it visible to any other solver.
func (r *Recorder) AddLemma(lits []int) {
	cp := append([]int(nil), lits...)
	r.mu.Lock()
	r.steps = append(r.steps, op{lits: cp})
	r.lemmas++
	r.mu.Unlock()
}

// DeleteLemma logs a clause deletion. With more than one solver
// attached the deletion is dropped (a per-worker deletion is not a
// deletion from the merged database).
func (r *Recorder) DeleteLemma(lits []int) {
	r.mu.Lock()
	if r.attached <= 1 {
		cp := append([]int(nil), lits...)
		r.steps = append(r.steps, op{lits: cp, del: true})
	}
	r.mu.Unlock()
}

// NumLemmas returns the number of lemmas logged so far.
func (r *Recorder) NumLemmas() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lemmas
}

// NumPremises returns the number of problem clauses logged so far.
func (r *Recorder) NumPremises() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.premises)
}

// Certificate snapshots the log as a self-contained certificate that
// the premises together with the given assumption literals are
// unsatisfiable. The snapshot copies slice headers only; the recorded
// clauses are immutable after logging.
func (r *Recorder) Certificate(assumptions []int) *Certificate {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Certificate{
		Premises:    append([][]int(nil), r.premises...),
		Assumptions: append([]int(nil), assumptions...),
		steps:       append([]op(nil), r.steps...),
	}
}

// Certificate is a checkable UNSAT certificate: premises ∧ assumptions
// is unsatisfiable, witnessed by the lemma sequence.
type Certificate struct {
	Premises    [][]int
	Assumptions []int
	steps       []op
}

// NewCertificate builds a certificate directly from clause lists
// (tests and external proofs; lemmas are additions only).
func NewCertificate(premises [][]int, assumptions []int, lemmas [][]int) *Certificate {
	c := &Certificate{Premises: premises, Assumptions: assumptions}
	for _, l := range lemmas {
		c.steps = append(c.steps, op{lits: append([]int(nil), l...)})
	}
	return c
}

// NumLemmas returns the number of addition steps in the proof.
func (c *Certificate) NumLemmas() int {
	n := 0
	for _, s := range c.steps {
		if !s.del {
			n++
		}
	}
	return n
}

// NumPremises returns the number of problem clauses.
func (c *Certificate) NumPremises() int { return len(c.Premises) }

// Proof renders the proof steps in the standard DRAT text format
// (additions as "l1 l2 ... 0", deletions prefixed with "d").
func (c *Certificate) Proof() string {
	var b strings.Builder
	for _, s := range c.steps {
		if s.del {
			b.WriteString("d ")
		}
		for _, l := range s.lits {
			fmt.Fprintf(&b, "%d ", l)
		}
		b.WriteString("0\n")
	}
	return b.String()
}

// CheckStats reports the work a Verify call did.
type CheckStats struct {
	Lemmas       int // addition steps in the proof
	Checked      int // lemmas whose RUP check actually ran (core lemmas)
	Core         int // clauses marked as antecedents of some conflict
	Propagations int // literals assigned across all propagation runs
}

// Verify replays the certificate through the backward checker. It
// returns an error if the proof does not establish unsatisfiability of
// Premises ∧ Assumptions.
func (c *Certificate) Verify() (CheckStats, error) {
	k := newChecker()
	var stats CheckStats

	// Load premises (always live) and assumption units (live for the
	// empty-clause check only).
	for _, lits := range c.Premises {
		k.addClause(lits)
	}
	var assumptionIdx []int
	for _, a := range c.Assumptions {
		assumptionIdx = append(assumptionIdx, k.addClause([]int{a}))
	}
	// Load the proof: additions become live clauses, deletions
	// deactivate the most recent live clause with the same literals.
	type rstep struct {
		idx int
		del bool
	}
	live := map[string][]int{} // canonical lits -> stack of clause indices
	steps := make([]rstep, 0, len(c.steps))
	for _, s := range c.steps {
		key := canon(s.lits)
		if s.del {
			stack := live[key]
			if len(stack) == 0 {
				// Deleting a clause that is not live (e.g. a premise
				// already deleted, or sharing artifacts): ignore — the
				// clause stays available, which is sound.
				steps = append(steps, rstep{idx: -1, del: true})
				continue
			}
			idx := stack[len(stack)-1]
			live[key] = stack[:len(stack)-1]
			k.clauses[idx].active = false
			steps = append(steps, rstep{idx: idx, del: true})
			continue
		}
		stats.Lemmas++
		idx := k.addClause(s.lits)
		live[key] = append(live[key], idx)
		steps = append(steps, rstep{idx: idx})
	}

	// Empty-clause check: propagation over everything live must
	// conflict.
	confl := k.rup(nil)
	stats.Propagations += k.props
	if confl < 0 {
		k.reset()
		return stats, fmt.Errorf("drat: empty clause is not RUP (the proof does not close)")
	}
	k.mark(confl)
	k.reset()

	// Assumptions are out of bounds for lemma derivations.
	for _, idx := range assumptionIdx {
		k.clauses[idx].active = false
	}

	// Backward pass: unwind the proof, checking exactly the core
	// lemmas.
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		if s.del {
			if s.idx >= 0 {
				k.clauses[s.idx].active = true
			}
			continue
		}
		cl := &k.clauses[s.idx]
		cl.active = false
		if !cl.core {
			continue
		}
		stats.Checked++
		confl := k.rup(cl.lits)
		stats.Propagations += k.props
		if confl < 0 {
			k.reset()
			return stats, fmt.Errorf("drat: lemma %d (%v) is not RUP", stats.Lemmas-stats.Checked, cl.lits)
		}
		k.mark(confl)
		k.reset()
	}
	for _, cl := range k.clauses {
		if cl.core {
			stats.Core++
		}
	}
	return stats, nil
}

// canon returns a canonical key for a clause (sorted literals).
func canon(lits []int) string {
	s := append([]int(nil), lits...)
	sort.Ints(s)
	var b strings.Builder
	for _, l := range s {
		fmt.Fprintf(&b, "%d ", l)
	}
	return b.String()
}

// ------------------------------------------------------------ checker

// ccl is one clause of the checker's database.
type ccl struct {
	lits   []int // deduplicated; literals in DIMACS convention
	active bool
	core   bool
}

// checker is a miniature unit-propagation engine over DIMACS literals,
// independent of internal/sat by construction: two watched literals,
// full re-propagation per RUP query, reasons kept for core marking.
type checker struct {
	clauses []ccl
	units   []int     // indices of unit clauses
	watches [][]int32 // literal index -> watching clause indices
	assign  []int8    // var (0-based) -> 0 unknown, 1 true, -1 false
	reason  []int32   // var -> implying clause index, -1 for query literals
	trail   []int     // assigned literals, DIMACS
	props   int       // assignments made by the last propagate call
}

func newChecker() *checker { return &checker{} }

// lidx maps a DIMACS literal to a watch-list index.
func lidx(l int) int {
	if l > 0 {
		return 2 * (l - 1)
	}
	return 2*(-l-1) + 1
}

func (k *checker) ensureVar(v int) {
	for len(k.assign) < v {
		k.assign = append(k.assign, 0)
		k.reason = append(k.reason, -1)
		k.watches = append(k.watches, nil, nil)
	}
}

// addClause installs a clause (deduplicated; tautologies become inert)
// and returns its index.
func (k *checker) addClause(lits []int) int {
	out := make([]int, 0, len(lits))
	taut := false
	for _, l := range lits {
		if l == 0 {
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == -l {
				taut = true
			}
		}
		if !dup {
			out = append(out, l)
		}
		v := l
		if v < 0 {
			v = -v
		}
		k.ensureVar(v)
	}
	idx := len(k.clauses)
	if taut {
		// A tautology can never propagate or conflict; keep it inactive
		// so the watch lists never see it.
		k.clauses = append(k.clauses, ccl{lits: out, active: false})
		return idx
	}
	k.clauses = append(k.clauses, ccl{lits: out, active: true})
	switch len(out) {
	case 0:
		// An empty premise: propagate will report it as an immediate
		// conflict via the units list (treated as a falsified unit).
		k.units = append(k.units, idx)
	case 1:
		k.units = append(k.units, idx)
	default:
		k.watches[lidx(out[0])] = append(k.watches[lidx(out[0])], int32(idx))
		k.watches[lidx(out[1])] = append(k.watches[lidx(out[1])], int32(idx))
	}
	return idx
}

func (k *checker) value(l int) int8 {
	if l > 0 {
		return k.assign[l-1]
	}
	return -k.assign[-l-1]
}

// enqueue assigns l true with the given reason; it returns false if l
// is already false (conflict at the caller).
func (k *checker) enqueue(l int, reason int32) bool {
	switch k.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := l
	if v < 0 {
		v = -v
	}
	if l > 0 {
		k.assign[v-1] = 1
	} else {
		k.assign[v-1] = -1
	}
	k.reason[v-1] = reason
	k.trail = append(k.trail, l)
	k.props++
	return true
}

// rup runs unit propagation from scratch: root units, then the
// negation of the query clause (nil for the empty-clause check), then
// watched-literal propagation. It returns the index of a conflicting
// clause, or -1 if propagation terminates without conflict. The trail
// and reasons stay live (so the caller can mark the conflict's core)
// until reset is called.
func (k *checker) rup(query []int) int {
	k.props = 0
	return k.run(query)
}

// reset undoes the assignment left by rup.
func (k *checker) reset() {
	for _, l := range k.trail {
		v := l
		if v < 0 {
			v = -v
		}
		k.assign[v-1] = 0
		k.reason[v-1] = -1
	}
	k.trail = k.trail[:0]
}

func (k *checker) run(query []int) int {
	// Root units.
	for _, idx := range k.units {
		cl := &k.clauses[idx]
		if !cl.active {
			continue
		}
		if len(cl.lits) == 0 {
			return idx
		}
		if !k.enqueue(cl.lits[0], int32(idx)) {
			return idx
		}
	}
	// Negated query literals (RUP assumptions; reason -1).
	for _, l := range query {
		if !k.enqueue(-l, -1) {
			// ¬l already false means l is a root consequence; the
			// conflict clause is l's reason.
			v := l
			if v < 0 {
				v = -v
			}
			if r := k.reason[v-1]; r >= 0 {
				return int(r)
			}
			// Two query literals clash (tautological lemma): cannot
			// conflict, keep going.
			continue
		}
	}
	// Watched-literal propagation.
	for qh := 0; qh < len(k.trail); qh++ {
		p := k.trail[qh] // p is true; visit clauses watching ¬p
		ws := k.watches[lidx(-p)]
		n := 0
	nextWatch:
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			cl := &k.clauses[ci]
			if !cl.active {
				ws[n] = ci
				n++
				continue
			}
			// Ensure the false literal is lits[1].
			if cl.lits[0] == -p {
				cl.lits[0], cl.lits[1] = cl.lits[1], cl.lits[0]
			}
			first := cl.lits[0]
			if k.value(first) == 1 {
				ws[n] = ci
				n++
				continue
			}
			for j := 2; j < len(cl.lits); j++ {
				if k.value(cl.lits[j]) != -1 {
					cl.lits[1], cl.lits[j] = cl.lits[j], cl.lits[1]
					k.watches[lidx(cl.lits[1])] = append(k.watches[lidx(cl.lits[1])], ci)
					continue nextWatch
				}
			}
			ws[n] = ci
			n++
			if !k.enqueue(first, ci) {
				// Copy back the remaining watchers before reporting.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				k.watches[lidx(-p)] = ws[:n]
				return int(ci)
			}
		}
		k.watches[lidx(-p)] = ws[:n]
	}
	return -1
}

// mark walks the reason graph from the conflicting clause, marking
// every clause that fed the conflict as core. Must run while the rup
// trail (and its reasons) is still live.
func (k *checker) mark(confl int) {
	if confl < 0 {
		return
	}
	seen := map[int]bool{}
	queue := []int{confl}
	for len(queue) > 0 {
		ci := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if ci < 0 || seen[ci] {
			continue
		}
		seen[ci] = true
		k.clauses[ci].core = true
		for _, l := range k.clauses[ci].lits {
			v := l
			if v < 0 {
				v = -v
			}
			if r := k.reason[v-1]; r >= 0 {
				queue = append(queue, int(r))
			}
		}
	}
}
