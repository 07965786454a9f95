// Package sat is a from-scratch CDCL SAT solver: two-watched literals,
// first-UIP clause learning with single-step minimization (a literal is
// dropped when every other literal of its reason clause is already in
// the learnt clause or fixed at level 0), VSIDS-style activity with
// phase saving, and Luby restarts. It replaces the external SAT solver
// the SKETCH infrastructure delegated to (§5, §9: "delegates the effort
// of conducting an effective search to an efficient, general purpose
// SAT-based solver").
//
// The interface is incremental: clauses may be added between Solve
// calls, and Solve accepts assumptions, which is how the CEGIS loop
// grows the observation set one counterexample at a time.
//
// # Clause arena
//
// Every clause, problem or learnt, lives in one pointer-free []Lit
// arena and is addressed by a 32-bit reference, the index of its header
// word. The header holds the literal count and two flags (learnt, and
// the deletion mark reduceDB sets); a learnt clause's header is followed
// by two words holding its float64 activity, and then every clause's
// literals. Watchers are {ref, blocker} pairs and reasons are refs, so
// propagation follows no pointers and the garbage collector has nothing
// to trace in the clause database. Variable values are kept per
// literal, so reading a literal's value is one load.
//
// reduceDB marks the low-activity half of the learnt clauses that are
// longer than two literals and are not locked (a clause is locked when
// it is the reason of its first literal's assignment), then compacts
// the arena into a fresh one: problem clauses first, then learnt
// clauses, each in list order. Each moved clause leaves its new ref in
// its old header word, and the reasons of the level-0 assignments (the
// only ones left at a reduction) are forwarded through it. The watch
// lists are then rebuilt from the two lists in the same order, so where
// the arena keeps a clause never affects the search.
//
// # Concurrency contract
//
// A Solver is NOT goroutine-safe: all methods must be called from one
// goroutine at a time. The only cross-goroutine interaction is the
// cancellation token passed to SolveCancel — another goroutine may set
// it to make an in-flight solve return early (soundly: a canceled
// solve reports neither SAT nor UNSAT, and the solver remains usable
// for further AddClause/Solve calls).
//
// Portfolio races N diversified Solver instances (varied polarity
// defaults, VSIDS decay, Luby restart unit, and random-seeded branching
// tie-breaks) over the same clause set; the first definitive answer
// wins and cancels the rest. Each worker keeps its own arena and
// learnt-clause database across calls, so portfolio state is
// incremental per worker across CEGIS iterations. A 1-worker Portfolio
// is bit-for-bit the plain Solver. Portfolio itself follows the same
// external contract as Solver: one caller goroutine; the internal
// worker goroutines exist only inside Solve and have all joined by the
// time it returns.
package sat

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"psketch/internal/drat"
	"psketch/internal/obs"
)

// Adder is the clause-construction half of the solver interface, the
// part the Tseitin encoder needs. Both Solver and Portfolio implement
// it (a Portfolio broadcasts to every worker, keeping variable indices
// aligned across them).
//
// AddClauses takes many clauses at once as a flat literal slice plus
// end offsets (clause i is lits[ends[i-1]:ends[i]], with ends[-1] = 0).
// A Portfolio processes the whole batch worker-major — each worker
// consumes the clauses in order before the next worker starts — which
// touches every worker's watch/assignment arrays once per batch instead
// of once per clause. The per-worker clause stream is identical to
// repeated AddClause calls, so behaviour (including the -j 1
// bit-for-bit contract) is unchanged. It returns false as soon as any
// insertion reports unsatisfiability. Likewise NewVars(n) is n NewVar
// calls that grow every per-variable array once.
type Adder interface {
	NumVars() int
	NewVar() int
	NewVars(n int) int
	AddClause(lits ...Lit) bool
	AddClauses(lits []Lit, ends []int) bool
}

// Config diversifies a solver instance for portfolio solving. The zero
// value is not meaningful; start from DefaultConfig.
type Config struct {
	// DefaultPolarity is the initial saved phase of fresh variables:
	// true branches the variable to false first (the MiniSat default).
	DefaultPolarity bool
	// VarDecay is the VSIDS variable-activity decay divisor (0 < d < 1;
	// smaller decays faster).
	VarDecay float64
	// ClaDecay is the clause-activity decay divisor.
	ClaDecay float64
	// LubyUnit is the number of conflicts per Luby restart unit.
	LubyUnit int
	// Seed seeds the xorshift generator for random branching
	// tie-breaks; 0 disables randomness entirely.
	Seed uint64
	// RandFreq is the fraction of branching decisions taken on a
	// uniformly random unassigned variable instead of the VSIDS pick.
	RandFreq float64
}

// DefaultConfig returns the configuration of New — the behaviour every
// sequential (-j 1) run reproduces.
func DefaultConfig() Config {
	return Config{DefaultPolarity: true, VarDecay: 0.95, ClaDecay: 0.999, LubyUnit: 100}
}

// DiverseConfig returns the configuration of portfolio worker i.
// Worker 0 is always DefaultConfig, so the portfolio's first worker
// explores exactly the sequential solver's search tree.
func DiverseConfig(i int) Config {
	cfg := DefaultConfig()
	if i == 0 {
		return cfg
	}
	cfg.DefaultPolarity = i%2 == 0
	decays := []float64{0.91, 0.97, 0.93, 0.99, 0.85, 0.95}
	cfg.VarDecay = decays[(i-1)%len(decays)]
	units := []int{50, 200, 100, 400, 150, 75}
	cfg.LubyUnit = units[(i-1)%len(units)]
	// splitmix64 of the worker index: distinct, deterministic seeds.
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	cfg.Seed = z ^ (z >> 31)
	cfg.RandFreq = 0.02
	return cfg
}

// Lit is a literal: variable v (0-based) encodes as 2v (positive) or
// 2v+1 (negated).
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref is a clause reference: the arena index of the clause's header
// word.
type cref uint32

// noRef is the reason of an unforced assignment (a decision, an
// assumption or a unit) and propagate's "no conflict".
const noRef cref = math.MaxUint32

// Arena header word: the literal count shifted past two flag bits.
const (
	hdrLearnt    = 1 << 0 // two activity words follow the header
	hdrDrop      = 1 << 1 // reduceDB is deleting the clause
	hdrSizeShift = 2
)

type watcher struct {
	ref     cref
	blocker Lit
}

// Solver is a CDCL SAT solver.
type Solver struct {
	arena   []Lit       // every clause; see "Clause arena" in the package comment
	clauses []cref      // problem clauses, in insertion order
	learnts []cref      // learnt clauses, in insertion order
	watches [][]watcher // indexed by literal

	vals     []lbool // indexed by literal
	level    []int32
	reason   []cref
	activity []float64
	polarity []bool // saved phases
	seen     []byte

	trail    []Lit
	trailLim []int32
	qhead    int
	model    []lbool // vals at the last SAT answer

	order     *varHeap
	varInc    float64
	claInc    float64
	ok        bool
	scratch   []Lit
	learntBuf []Lit // analyze's result, reused across conflicts

	cfg      Config
	rngState uint64
	cancel   *atomic.Bool // read-only here; set by SolveCancel's caller
	cancel2  *atomic.Bool // second token (portfolio race + external cancel)

	// Clause sharing (portfolio members only; nil otherwise): the pool,
	// this worker's identity in it, and the fetch cursor.
	shared      *sharedPool
	sharedID    int
	shareCursor uint64

	// DRAT proof logging (nil when disabled): every learnt clause is
	// stamped into the recorder before it is exported to the shared
	// pool, so a recorder shared by portfolio workers linearizes the
	// merged derivation (see internal/drat). proofPremises marks the one
	// solver of a recorder-sharing group that logs problem clauses (all
	// portfolio workers receive the same broadcast).
	proof         *drat.Recorder
	proofPremises bool
	dimacsBuf     []int

	// Tracing (nil tr when disabled; see trace.go). spanName lets a
	// portfolio rename its workers' spans to "sat.worker".
	tr         *obs.Tracer
	spanName   string
	spanParent obs.SpanID

	// Stats counts solver work for the Figure 9 columns.
	Stats struct {
		Conflicts    int64
		Decisions    int64
		Propagations int64
		Restarts     int64
		Learned      int64
		Reduces      int64
		Exported     int64 // learnt clauses published to the shared pool
		Imported     int64 // shared clauses adopted from other workers
	}
}

// New returns an empty solver with the default configuration.
func New() *Solver { return NewWith(DefaultConfig()) }

// NewWith returns an empty solver with the given configuration.
func NewWith(cfg Config) *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true, cfg: cfg, rngState: cfg.Seed}
	s.order = &varHeap{s: s}
	return s
}

// Dimacs converts a literal to the DIMACS convention internal/drat
// uses: variable v as ±(v+1).
func Dimacs(l Lit) int {
	if l.Neg() {
		return -(l.Var() + 1)
	}
	return l.Var() + 1
}

// dimacs converts a clause into the scratch buffer (the recorder
// copies what it is handed).
func (s *Solver) dimacs(lits []Lit) []int {
	out := s.dimacsBuf[:0]
	for _, l := range lits {
		out = append(out, Dimacs(l))
	}
	s.dimacsBuf = out
	return out
}

// SetProof attaches a DRAT proof recorder: from now on every problem
// clause is logged as a premise and every learnt clause as a lemma, so
// UNSAT verdicts can be replayed through drat.Certificate.Verify.
// Attach the recorder before adding clauses; clauses added earlier are
// missing from the log and the replay of a later UNSAT verdict may
// fail. Portfolio workers share one recorder via Portfolio.SetProof
// instead.
func (s *Solver) SetProof(r *drat.Recorder) {
	s.proof = r
	s.proofPremises = true
	if r != nil {
		r.Attach()
	}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int { return s.NewVars(1) }

// initWatches is the watch-list capacity each new literal starts with;
// it saves the 1→2→4 regrowths every list would otherwise pay.
const initWatches = 4

// NewVars allocates n fresh variables, numbered consecutively, and
// returns the first. It is n NewVar calls, but grows each per-variable
// array at most once, and carves the new literals' initial watch lists
// out of one slab (each a full slice expression, so a list that
// outgrows its share moves out instead of overwriting its neighbour).
func (s *Solver) NewVars(n int) int {
	v := len(s.level)
	s.vals = slices.Grow(s.vals, 2*n)
	s.level = slices.Grow(s.level, n)
	s.reason = slices.Grow(s.reason, n)
	s.activity = slices.Grow(s.activity, n)
	s.polarity = slices.Grow(s.polarity, n)
	s.seen = slices.Grow(s.seen, n)
	s.watches = slices.Grow(s.watches, 2*n)
	s.order.heap = slices.Grow(s.order.heap, n)
	s.order.indices = slices.Grow(s.order.indices, n)
	slab := make([]watcher, 2*n*initWatches)
	for i := 0; i < n; i++ {
		s.vals = append(s.vals, lUndef, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, noRef)
		s.activity = append(s.activity, 0)
		s.polarity = append(s.polarity, s.cfg.DefaultPolarity) // true = branch false first
		s.seen = append(s.seen, 0)
		for j := 0; j < 2; j++ {
			w := slab[:0:initWatches]
			slab = slab[initWatches:]
			s.watches = append(s.watches, w)
		}
		s.order.insert(v + i)
	}
	return v
}

func (s *Solver) valueLit(l Lit) lbool { return s.vals[l] }

// Value returns the model value of a variable after a SAT result.
func (s *Solver) Value(v int) bool {
	l := MkLit(v, false)
	return int(l) < len(s.model) && s.model[l] == lTrue
}

// newClause copies lits into the arena as a fresh clause (a learnt one
// with activity 0) and returns its ref.
func (s *Solver) newClause(lits []Lit, learnt bool) cref {
	r := len(s.arena)
	if uint64(r)+uint64(len(lits))+3 >= uint64(noRef) {
		panic("sat: clause arena exceeds 2^32 words")
	}
	h := Lit(len(lits) << hdrSizeShift)
	if learnt {
		s.arena = append(s.arena, h|hdrLearnt, 0, 0)
	} else {
		s.arena = append(s.arena, h)
	}
	s.arena = append(s.arena, lits...)
	return cref(r)
}

// lits returns clause r's literals, aliased into the arena.
func (s *Solver) lits(r cref) []Lit {
	h := uint32(s.arena[r])
	start := uint32(r) + 1 + 2*(h&hdrLearnt)
	return s.arena[start : start+h>>hdrSizeShift]
}

func (s *Solver) learnt(r cref) bool { return s.arena[r]&hdrLearnt != 0 }

func (s *Solver) claActivity(r cref) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[r+1])) | uint64(uint32(s.arena[r+2]))<<32)
}

func (s *Solver) setClaActivity(r cref, a float64) {
	b := math.Float64bits(a)
	s.arena[r+1], s.arena[r+2] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// AddClause adds a problem clause. It returns false if the formula is
// already unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during solving")
	}
	// Log the clause as given — normalization below is itself a derived
	// fact (level-0 units), which the proof checker re-derives.
	if s.proof != nil && s.proofPremises {
		s.proof.AddPremise(s.dimacs(lits))
	}
	// Normalize: drop duplicate/false literals, detect tautologies.
	out := s.scratch[:0]
	for _, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			s.scratch = out
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				s.scratch = out
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.scratch = out
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noRef)
		s.ok = s.propagate() == noRef
		return s.ok
	}
	r := s.newClause(out, false)
	s.clauses = append(s.clauses, r)
	s.attach(r)
	return true
}

// AddClauses adds a batch of clauses (flat literals + end offsets),
// equivalent to calling AddClause on each in order.
func (s *Solver) AddClauses(lits []Lit, ends []int) bool {
	ok := true
	start := 0
	for _, end := range ends {
		if !s.AddClause(lits[start:end]...) {
			ok = false
		}
		start = end
	}
	return ok
}

func (s *Solver) attach(r cref) {
	c := s.lits(r)
	l0, l1 := c[0], c[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{r, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{r, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause
// or noRef.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		n := 0
	nextWatch:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.vals[w.blocker] == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := s.lits(w.ref)
			// Ensure the false literal is c[1].
			if c[0] == falseLit {
				c[0], c[1] = c[1], c[0]
			}
			first := c[0]
			if first != w.blocker && s.vals[first] == lTrue {
				ws[n] = watcher{w.ref, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c); k++ {
				if s.vals[c[k]] != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1].Not()] = append(s.watches[c[1].Not()], watcher{w.ref, first})
					continue nextWatch
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{w.ref, first}
			n++
			if s.vals[first] == lFalse {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return w.ref
			}
			s.uncheckedEnqueue(first, w.ref)
		}
		s.watches[p] = ws[:n]
	}
	return noRef
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level. The clause
// aliases a buffer the next call reuses.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	first := true

	for {
		s.bumpClause(confl)
		c := s.lits(confl)
		for j := 0; j < len(c); j++ {
			q := c[j]
			if !first && j == 0 {
				continue // skip the asserting literal of the reason
			}
			if first || q != p {
				v := q.Var()
				if s.seen[v] == 0 && s.level[v] > 0 {
					s.seen[v] = 1
					s.bumpVar(v)
					if int(s.level[v]) >= s.decisionLevel() {
						counter++
					} else {
						learnt = append(learnt, q)
					}
				}
			}
		}
		// Select next literal to look at.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		first = false
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()
	s.learntBuf = learnt

	// Minimize: drop literals implied by the rest of the clause. The
	// kept literals are compacted in place, and redundant tests
	// membership in the whole buffer, stale slots included: seen[v]
	// counts the slots holding v, so overwriting a slot moves one count
	// from the overwritten variable to the kept one.
	out := learnt[:1]
	for i := 1; i < len(learnt); i++ {
		l := learnt[i]
		if s.reason[l.Var()] == noRef || !s.redundant(l) {
			if k := len(out); k < i {
				s.seen[learnt[k].Var()]--
				s.seen[l.Var()]++
			}
			out = append(out, l)
		}
	}
	// Every variable with a nonzero count still holds a slot.
	for _, l := range learnt {
		s.seen[l.Var()] = 0
	}
	learnt = out

	// Compute backtrack level = second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

// redundant reports whether lit is implied by the other literals of the
// learnt clause (single-step self-subsumption test): every literal of
// its reason is fixed at level 0 or has a variable counted in seen.
func (s *Solver) redundant(lit Lit) bool {
	r := s.reason[lit.Var()]
	if r == noRef {
		return false
	}
	for _, q := range s.lits(r) {
		if q == lit.Not() {
			continue
		}
		v := q.Var()
		if s.level[v] == 0 {
			continue
		}
		if s.seen[v] == 0 {
			return false
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= lim; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = l.Neg()
		s.vals[l] = lUndef
		s.vals[l.Not()] = lUndef
		s.reason[v] = noRef
		s.order.insert(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(r cref) {
	if !s.learnt(r) {
		return
	}
	a := s.claActivity(r) + s.claInc
	s.setClaActivity(r, a)
	if a > 1e20 {
		for _, l := range s.learnts {
			s.setClaActivity(l, s.claActivity(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= s.cfg.VarDecay
	s.claInc /= s.cfg.ClaDecay
}

// nextRand steps the xorshift64 generator (only used when Seed != 0).
func (s *Solver) nextRand() uint64 {
	s.rngState ^= s.rngState << 13
	s.rngState ^= s.rngState >> 7
	s.rngState ^= s.rngState << 17
	return s.rngState
}

// pickBranchVar returns the highest-activity unassigned variable,
// occasionally (RandFreq of the time) a uniformly random one — the
// portfolio's branching tie-break diversification.
func (s *Solver) pickBranchVar() int {
	if s.cfg.Seed != 0 && len(s.order.heap) > 0 &&
		s.nextRand()%10000 < uint64(s.cfg.RandFreq*10000) {
		// Peek a random heap entry without removing it: if it is later
		// popped while assigned it is simply discarded, and backtracking
		// reinserts unassigned variables anyway.
		v := int(s.order.heap[s.nextRand()%uint64(len(s.order.heap))])
		if s.vals[MkLit(v, false)] == lUndef {
			return v
		}
	}
	for !s.order.empty() {
		v := s.order.pop()
		if s.vals[MkLit(v, false)] == lUndef {
			return v
		}
	}
	return -1
}

// luby computes the Luby restart sequence.
func luby(y float64, x int) float64 {
	size, seq := 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x = x % size
	}
	r := 1.0
	for i := 0; i < seq; i++ {
		r *= y
	}
	return r
}

// Solve searches for a model under the given assumptions. It returns
// true (model readable via Value) or false (UNSAT under assumptions).
func (s *Solver) Solve(assumptions ...Lit) bool {
	ok, _ := s.SolveCancel(nil, assumptions...)
	return ok
}

// SolveCancel is Solve with a cancellation token: when another
// goroutine sets cancel, the search unwinds at its next check and
// SolveCancel returns canceled=true with no verdict. The solver stays
// consistent and incremental — canceled solves keep their learnt
// clauses and may be re-solved or extended afterwards. A nil cancel is
// never checked.
func (s *Solver) SolveCancel(cancel *atomic.Bool, assumptions ...Lit) (sat, canceled bool) {
	return s.SolveCancel2(cancel, nil, assumptions...)
}

// solveCancel2 is the uninstrumented solve loop behind SolveCancel2
// (trace.go), which wraps it in a span when a tracer is attached.
func (s *Solver) solveCancel2(cancel, cancel2 *atomic.Bool, assumptions ...Lit) (sat, canceled bool) {
	if !s.ok {
		return false, false
	}
	s.cancel, s.cancel2 = cancel, cancel2
	defer func() {
		s.cancel, s.cancel2 = nil, nil
		s.backtrackTo(0)
	}()

	restarts := 0
	for {
		// Restart boundaries (and solve entry) are the import points for
		// pool clauses: the solver is at level 0, so normalization and
		// unit propagation are valid.
		if !s.importShared() {
			return false, false
		}
		confl := s.search(int(luby(2, restarts)*float64(s.cfg.LubyUnit)), assumptions)
		switch confl {
		case satisfied:
			s.model = append(s.model[:0], s.vals...)
			return true, false
		case unsatisfiable:
			return false, false
		case canceledRes:
			return false, true
		}
		restarts++
		s.Stats.Restarts++
		s.backtrackTo(0)
		// Keep the learned-clause database bounded: CEGIS solves the
		// same growing instance many times, and stale low-activity
		// lemmas otherwise dominate propagation cost.
		if len(s.learnts) > 4000+s.NumClauses()/2 {
			s.reduceDB()
		}
	}
}

// exportLearnt publishes a freshly learned clause to the shared pool
// when it passes the length and LBD quality gates. The caller has
// already stamped the clause into the proof recorder, so importers
// always find it in the merged derivation.
func (s *Solver) exportLearnt(learnt []Lit) {
	if s.shared == nil {
		return
	}
	if len(learnt) > shareMaxLen || s.lbd(learnt) > shareMaxLBD {
		return
	}
	s.shared.publish(s.sharedID, learnt)
	s.Stats.Exported++
}

// lbd computes the literal-block distance of a clause: the number of
// distinct decision levels among its (currently assigned) literals.
func (s *Solver) lbd(lits []Lit) int {
	n := 0
	for i, l := range lits {
		lv := s.level[l.Var()]
		dup := false
		for _, m := range lits[:i] {
			if s.level[m.Var()] == lv {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	return n
}

// importShared adopts every pool clause published since the last
// import (skipping this worker's own exports). Must be called at
// decision level 0. Returns false when an import reveals the formula
// unsatisfiable.
func (s *Solver) importShared() bool {
	if s.shared == nil {
		return true
	}
	cls, next := s.shared.fetch(s.shareCursor, s.sharedID)
	s.shareCursor = next
	for _, lits := range cls {
		if !s.addImported(lits) {
			s.ok = false
			return false
		}
	}
	return true
}

// addImported installs one shared clause as a learnt clause: satisfied
// clauses are skipped, level-0-false literals dropped, units enqueued
// and propagated. The clause is implied by the problem clauses (see
// sharedPool), so all outcomes — including a propagation conflict,
// which proves UNSAT — are sound.
func (s *Solver) addImported(lits []Lit) bool {
	out := s.scratch[:0]
	for _, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			s.scratch = out
			return true
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	s.scratch = out
	s.Stats.Imported++
	switch len(out) {
	case 0:
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noRef)
		return s.propagate() == noRef
	}
	r := s.newClause(out, true)
	s.learnts = append(s.learnts, r)
	s.attach(r)
	return true
}

// Conflicts returns the total conflicts seen, for stats reporting.
func (s *Solver) Conflicts() int64 { return s.Stats.Conflicts }

// reduceDB drops the lower-activity half of the learned clauses
// (keeping binary clauses and locked ones), compacts the arena and
// rebuilds the watcher lists.
func (s *Solver) reduceDB() {
	if s.decisionLevel() != 0 {
		return
	}
	sorted := append([]cref(nil), s.learnts...)
	sort.Slice(sorted, func(i, j int) bool { return s.claActivity(sorted[i]) < s.claActivity(sorted[j]) })
	for _, r := range sorted[:len(sorted)/2] {
		if len(s.lits(r)) > 2 && !s.locked(r) {
			s.arena[r] |= hdrDrop
		}
	}
	kept := s.learnts[:0]
	for _, r := range s.learnts {
		if s.arena[r]&hdrDrop == 0 {
			kept = append(kept, r)
		} else if s.proof != nil {
			// The recorder drops per-worker deletions when the proof is
			// shared by a portfolio (the merged database still holds the
			// clause); solo proofs keep them as real DRAT "d" lines.
			s.proof.DeleteLemma(s.dimacs(s.lits(r)))
		}
	}
	s.learnts = kept
	s.compact()
	// Rebuild watches from scratch.
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, r := range s.clauses {
		s.attach(r)
	}
	for _, r := range s.learnts {
		s.attach(r)
	}
	s.Stats.Reduces++
}

// locked reports whether clause r is the reason of an assignment; only
// its first literal can be the one it forced.
func (s *Solver) locked(r cref) bool {
	l := s.lits(r)[0]
	return s.vals[l] == lTrue && s.reason[l.Var()] == r
}

// compact copies the listed clauses into a fresh arena, problem clauses
// first and then learnts, each in list order, so the clauses reduceDB
// dropped take no space. Each moved clause's old header word receives
// its new ref, through which the reasons of the trail's assignments are
// forwarded. Called at level 0 only, where no reason is a dropped
// clause.
func (s *Solver) compact() {
	old := s.arena
	s.arena = make([]Lit, 0, cap(old))
	move := func(r cref) cref {
		n := cref(len(s.arena))
		h := uint32(old[r])
		end := uint32(r) + 1 + 2*(h&hdrLearnt) + h>>hdrSizeShift
		s.arena = append(s.arena, old[r:end]...)
		old[r] = Lit(n)
		return n
	}
	for i, r := range s.clauses {
		s.clauses[i] = move(r)
	}
	for i, r := range s.learnts {
		s.learnts[i] = move(r)
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != noRef {
			s.reason[l.Var()] = cref(old[r])
		}
	}
}

type searchResult int

const (
	sResTimeout searchResult = iota
	satisfied
	unsatisfiable
	canceledRes
)

func (s *Solver) search(maxConflicts int, assumptions []Lit) searchResult {
	conflicts := 0
	for {
		if (s.cancel != nil && s.cancel.Load()) || (s.cancel2 != nil && s.cancel2.Load()) {
			return canceledRes
		}
		confl := s.propagate()
		if confl != noRef {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return unsatisfiable
			}
			learnt, btLevel := s.analyze(confl)
			// Stamp the lemma into the proof BEFORE exporting it: an
			// importer's later lemmas must sort after it in the merged
			// derivation order (internal/drat).
			if s.proof != nil {
				s.proof.AddLemma(s.dimacs(learnt))
			}
			// Export before backtracking: the LBD quality gate needs the
			// decision levels the literals were learned at.
			s.exportLearnt(learnt)
			// Backtracking may drop below the assumption levels; the
			// no-conflict branch re-establishes assumptions and reports
			// UNSAT if one has become false.
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				if s.valueLit(learnt[0]) == lFalse {
					return unsatisfiable
				}
				if s.valueLit(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], noRef)
				}
			} else {
				r := s.newClause(learnt, true)
				s.learnts = append(s.learnts, r)
				s.Stats.Learned++
				s.attach(r)
				s.bumpClause(r)
				s.uncheckedEnqueue(learnt[0], r)
			}
			s.decayActivities()
			if conflicts >= maxConflicts {
				return sResTimeout
			}
			continue
		}
		// No conflict: extend assumptions, then decide.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				// Already satisfied: open an empty level to keep the
				// level/assumption correspondence.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case lFalse:
				return unsatisfiable
			}
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.uncheckedEnqueue(a, noRef)
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return satisfied
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(MkLit(v, s.polarity[v]), noRef)
	}
}

// ------------------------------------------------------------- varHeap

// varHeap is a binary max-heap on variable activity.
type varHeap struct {
	s       *Solver
	heap    []int32
	indices []int32 // var -> heap position + 1 (0 = absent)
}

func (h *varHeap) less(a, b int32) bool {
	return h.s.activity[a] > h.s.activity[b]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) insert(v int) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.indices[v] = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] != 0 {
		h.up(int(h.indices[v]) - 1)
	}
}

func (h *varHeap) pop() int {
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[top] = 0
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 1
		h.down(0)
	}
	return int(top)
}

func (h *varHeap) up(i int) {
	x := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(x, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[p]] = int32(i + 1)
		i = p
	}
	h.heap[i] = x
	h.indices[x] = int32(i + 1)
}

func (h *varHeap) down(i int) {
	x := h.heap[i]
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.heap) {
			break
		}
		c := l
		if r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			c = r
		}
		if !h.less(h.heap[c], x) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[c]] = int32(i + 1)
		i = c
	}
	h.heap[i] = x
	h.indices[x] = int32(i + 1)
}
