// Package core contains the paper's primary contribution: the
// counterexample-guided inductive synthesis (CEGIS) engines. The
// sequential engine (§5) learns from counterexample inputs; the
// concurrent engine (§6) learns from counterexample traces projected
// onto the candidate space.
//
// # Concurrency contract
//
// A Synthesizer is driven from a single goroutine — its methods are not
// goroutine-safe — but with Options.Parallelism > 1 (the default is
// runtime.GOMAXPROCS(0)) both CEGIS phases fan out internally: the
// synthesize phase races a portfolio of diversified incremental SAT
// solvers (internal/sat.Portfolio), and the verify phase shards the
// model checker's interleaving DFS across workers (internal/mc). All
// worker goroutines are joined before each phase returns, so the loop
// itself stays sequential and the phases never overlap.
//
// Determinism: Parallelism == 1 reproduces the single-threaded engine
// bit-for-bit — same candidates in the same order, same iteration
// counts, same counterexamples. Parallelism > 1 keeps verdicts and
// soundness (a resolved candidate is still verified over every
// interleaving; UNSAT is still a definitive NO) but may visit different
// intermediate candidates run to run, because portfolio models and the
// first-found counterexample are race-dependent.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/drat"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/obs"
	"psketch/internal/project"
	"psketch/internal/sat"
	"psketch/internal/state"
	"psketch/internal/sym"
	"psketch/internal/types"
)

// Options configure synthesis.
type Options struct {
	// MaxIterations bounds the CEGIS loop (default 256).
	MaxIterations int
	// MCMaxStates bounds the model checker (default 4,000,000).
	MCMaxStates int
	// TracesPerIteration asks the verifier for several counterexample
	// traces per CEGIS iteration (default 1, the paper's behaviour);
	// each is projected into its own inductive constraint.
	TracesPerIteration int
	// Parallelism sizes both the SAT portfolio (whose workers always
	// share learnt clauses) and the model checker's worker pool
	// (default runtime.GOMAXPROCS(0)). 1 runs the fully deterministic
	// sequential engine.
	Parallelism int
	// Proof enables DRAT proof logging in the SAT backends (solver or
	// portfolio, shared-clause pool included) and replays every UNSAT
	// verdict the loop commits to — candidate-space exhaustion and the
	// sequential verifier's final "no counterexample input" — through
	// the internal/drat backward checker before the verdict is
	// returned. A failed replay surfaces as an error, so a "cannot be
	// resolved" answer always carries a machine-checked certificate.
	Proof bool
	// Cancel, when set and stored true by another goroutine, aborts the
	// synthesis cooperatively: in-flight SAT solves and model-checker
	// searches unwind, worker goroutines are joined, and Synthesize
	// returns ErrCanceled.
	Cancel *atomic.Bool
	// Trace, when set, receives hierarchical spans for every phase of
	// the loop: per-iteration solve/verify/project spans, the SAT
	// backend's per-solve (and per-portfolio-worker) spans, the model
	// checker's per-check and per-shard-worker spans, and the projection
	// cache's per-encode spans. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// TraceParent is the span the run's root spans parent to (0 for
	// top-level), letting a driver such as internal/bench nest whole
	// synthesis runs under its own spans.
	TraceParent obs.SpanID
	// Metrics, when set, is the registry the loop's counters live in;
	// Stats is a view computed from it, so an external registry sees
	// live values mid-run (the -debug-addr endpoint). Nil uses a
	// private registry — Stats works either way.
	Metrics *obs.Metrics
	// HeapSampleEvery samples the heap high-water mark every N CEGIS
	// iterations. runtime.ReadMemStats stops the world, so the default
	// 0 samples only once, at the end of Synthesize, keeping the pause
	// off the hot loop; pskbench sets 1, so that its MiB column also
	// sees peaks inside the loop.
	HeapSampleEvery int
	// Verbose, when set, receives progress lines.
	Verbose func(format string, args ...any)
	// WatchCandidate, when non-nil, is checked against every learned
	// constraint; if a projection claims this candidate fails, the
	// synthesizer reports it via Verbose (soundness debugging).
	WatchCandidate desugar.Candidate

	// Warm, when set together with WarmKey, connects the synthesizer to
	// a cross-request warm-state store (psketchd's cross-request cache):
	// New tries to check out a previously built encoding context —
	// hash-consed builder, hole inputs, projection cache with its
	// memoized trace prefixes — for the same sketch, and Release returns
	// the (possibly grown) context for the next run of that sketch. The
	// checkout is exclusive, so concurrent jobs of one sketch never share
	// a live context. Only concurrent sketches carry warm state (the
	// sequential engine has no projection cache). The caller must
	// guarantee WarmKey identifies the (source, target, desugar options)
	// triple exactly — psketch.SketchHash does.
	Warm *project.Store
	// WarmKey is the sketch-hash key into Warm ("" disables).
	WarmKey string
}

func (o Options) defaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 256
	}
	if o.MCMaxStates == 0 {
		o.MCMaxStates = 4_000_000
	}
	if o.TracesPerIteration == 0 {
		o.TracesPerIteration = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...any) {}
	}
	return o
}

// Stats mirrors the Figure 9 columns: per-phase solver and model-build
// times, iteration count, and memory. It is a point-in-time view
// computed from the synthesizer's metrics registry (statsView), not a
// separately maintained side channel, so a journal's metrics trailer
// and the Stats a caller sees are the same numbers.
type Stats struct {
	Iterations int
	SSolve     time.Duration // synthesizer SAT time
	SModel     time.Duration // synthesizer encoding time (projection + Tseitin)
	VSolve     time.Duration // verifier search time (model checking / SAT)
	VModel     time.Duration // verifier model-build time (lowering/layout)
	Total      time.Duration
	SATVars    int
	SATClauses int
	SATConfl   int64
	MCStates   int
	MCTrans    int // transitions the model checker executed
	// MCVisitedBytes is the peak estimated visited-set footprint of any
	// single check. Unlike the fields above, it is per-run (tracked on
	// the synthesizer, not read back from the registry, whose counter of
	// the same name accumulates across runs sharing one Metrics).
	MCVisitedBytes uint64
	MaxHeap        uint64 // peak observed heap, bytes
	// Parallelism is the worker count both phases ran at; the
	// per-worker columns below are empty at Parallelism 1.
	Parallelism int
	// SATWorkers holds the synthesis portfolio's per-worker totals
	// (wins, conflicts, decisions) across all iterations.
	SATWorkers []sat.WorkerStats
	// MCWorkerStates accumulates the states each verifier worker
	// expanded across all iterations.
	MCWorkerStates []int
	// SATExported/SATImported total the clauses exchanged through the
	// portfolio's shared pool across all workers. Like the reduction
	// stats above, both are per-run deltas tracked on the synthesizer:
	// the registry accumulates (Add), Stats stays per-run.
	SATExported int64
	SATImported int64
	// Projection-encoding cache effectiveness: Encode calls that
	// restored a memoized trace prefix (ProjHits) vs. replayed from the
	// base state (ProjMisses), and the total projected entries skipped.
	ProjHits   int64
	ProjMisses int64
	ProjSaved  int64
	// WarmStart reports that the run checked its encoding context out of
	// a cross-request warm store (Options.Warm) instead of building it
	// cold — projection-cache hits then include prefixes memoized by
	// earlier runs of the same sketch.
	WarmStart bool
	// DRAT certificate replay totals (Options.Proof only): lemmas the
	// recorder held at certification time, lemmas the backward pass
	// actually checked / found core, and the wall time Verify spent.
	ProofLemmas  int
	ProofChecked int
	ProofCore    int
	ProofCheck   time.Duration
}

// ErrCanceled is returned by Synthesize when Options.Cancel fired
// before the loop converged.
var ErrCanceled = errors.New("core: canceled")

// Result is the synthesis outcome.
type Result struct {
	Resolved  bool
	Candidate desugar.Candidate
	Stats     Stats
	// LastTrace holds the final counterexample for unresolvable
	// sketches (nil otherwise).
	LastTrace *mc.Trace
	// Certificate, under Options.Proof, is the verified DRAT
	// certificate backing the result's final UNSAT verdict: the
	// candidate-space exhaustion for unresolved results, or the
	// sequential verifier's "no violating input" verdict for resolved
	// sequential results. Resolved concurrent results carry none —
	// there the final verdict is the model checker's, cross-checked by
	// internal/oracle instead.
	Certificate *drat.Certificate
}

// Synthesizer runs CEGIS for one lowered sketch.
type Synthesizer struct {
	Sk     *desugar.Sketch
	Prog   *ir.Program
	Layout *state.Layout
	opts   Options

	b        *circuit.Builder
	holes    []circuit.Word
	solver   satSolver
	vmap     *circuit.VarMap
	holeVars [][]int

	// The sequential verifier's backend persists across CEGIS
	// iterations: one solver keeps its learnt clauses and saved phases,
	// each iteration's violation circuit is added incrementally, and the
	// current goal is passed as a Solve assumption (so stale goals from
	// earlier candidates stay inert). The builder and variable map must
	// live exactly as long as the solver — circuit literal ids are only
	// unique within one builder.
	vb       *circuit.Builder
	verifier satSolver
	vvmap    *circuit.VarMap

	// DRAT recorders (Options.Proof): one per SAT backend. vcert holds
	// the verified certificate of the sequential verifier's final
	// UNSAT-under-goal verdict for the Result.
	proof  *drat.Recorder
	vproof *drat.Recorder
	vcert  *drat.Certificate

	// projCache memoizes projection encodings per trace prefix on b; it
	// persists across iterations and Synthesize calls (Enumerate).
	projCache *project.Cache

	// warmStart records that b/holes/projCache came from Options.Warm;
	// released marks that Release already returned them.
	warmStart bool
	released  bool

	// Observability. tr is nil when tracing is off (span calls are then
	// no-ops); met always points at a registry — Options.Metrics or a
	// private one — so the counter handles in ct are always valid.
	tr      *obs.Tracer
	met     *obs.Metrics
	ct      counters
	runSpan obs.Span // current Synthesize root span

	// The two slice-valued stats the registry cannot hold: per-worker
	// model-checker state totals and the portfolio's per-worker solver
	// totals.
	mcWorkerStates []int
	satWorkers     []sat.WorkerStats
	// Per-run visited-set peak. The registry counter with the same name
	// is process-wide (a shared Options.Metrics accumulates across runs,
	// which is what a live /metrics endpoint wants); this field is this
	// synthesizer's own maximum so Stats and bench rows stay per-run
	// even in a multi-benchmark sweep.
	runVisitedBytes uint64
	// Per-run SAT exchange/conflict stats, same pattern: the solver
	// backend counts lifetime totals (Enumerate reuses it across runs),
	// so Synthesize snapshots baselines at entry and reports deltas,
	// Add-ing (never Set-ing) them into the registry, so that sweep rows
	// sharing one registry never overwrite each other.
	baseConfl, baseExported, baseImported       int64
	baseProjHits, baseProjMisses, baseProjSaved int64
	runSATConfl, runSATExported, runSATImported int64
	runProjHits, runProjMisses, runProjSaved    int64
	runSATVars, runSATClauses                   int
}

// counters caches the registry handles the loop bumps. Durations are
// nanoseconds; the cegis.*_ns names match obs.PhaseCounter, which is
// what lets psktrace cross-check journal span totals against the
// metrics trailer.
type counters struct {
	iterations, totalNS                    *obs.Counter
	ssolveNS, smodelNS, vsolveNS, vmodelNS *obs.Counter
	mcStates, mcTrans                      *obs.Counter
	mcVisitedBytes                         *obs.Counter
	heapMax                                *obs.Counter
	satVars, satClauses, satConfl          *obs.Counter
	satExported, satImported               *obs.Counter
	projHits, projMisses, projSaved        *obs.Counter

	proofLemmas, proofChecked, proofCore, proofCheckNS *obs.Counter
}

func newCounters(m *obs.Metrics) counters {
	return counters{
		iterations: m.Counter("cegis.iterations"),
		totalNS:    m.Counter("cegis.total_ns"),
		ssolveNS:   m.Counter(obs.PhaseCounter(obs.PhaseSSolve)),
		smodelNS:   m.Counter(obs.PhaseCounter(obs.PhaseSModel)),
		vsolveNS:   m.Counter(obs.PhaseCounter(obs.PhaseVSolve)),
		vmodelNS:   m.Counter(obs.PhaseCounter(obs.PhaseVModel)),
		mcStates:   m.Counter("mc.states"),
		mcTrans:    m.Counter("mc.trans"),
		// high-water mark across iterations, not a running sum
		mcVisitedBytes: m.Counter("mc.visited_bytes"),
		heapMax:        m.Counter("heap.max_bytes"),
		satVars:        m.Counter("sat.vars"),
		satClauses:     m.Counter("sat.clauses"),
		satConfl:       m.Counter("sat.conflicts"),
		satExported:    m.Counter("sat.exported"),
		satImported:    m.Counter("sat.imported"),
		projHits:       m.Counter("proj.hits"),
		projMisses:     m.Counter("proj.misses"),
		projSaved:      m.Counter("proj.saved_entries"),
		proofLemmas:    m.Counter("proof.lemmas"),
		proofChecked:   m.Counter("proof.checked"),
		proofCore:      m.Counter("proof.core"),
		proofCheckNS:   m.Counter("proof.check_ns"),
	}
}

// statsView materializes Stats from the metrics registry.
func (s *Synthesizer) statsView() Stats {
	st := Stats{
		Iterations:   int(s.ct.iterations.Get()),
		SSolve:       time.Duration(s.ct.ssolveNS.Get()),
		SModel:       time.Duration(s.ct.smodelNS.Get()),
		VSolve:       time.Duration(s.ct.vsolveNS.Get()),
		VModel:       time.Duration(s.ct.vmodelNS.Get()),
		Total:        time.Duration(s.ct.totalNS.Get()),
		MCStates:     int(s.ct.mcStates.Get()),
		MCTrans:      int(s.ct.mcTrans.Get()),
		MaxHeap:      uint64(s.ct.heapMax.Get()),
		Parallelism:  s.opts.Parallelism,
		ProofLemmas:  int(s.ct.proofLemmas.Get()),
		ProofChecked: int(s.ct.proofChecked.Get()),
		ProofCore:    int(s.ct.proofCore.Get()),
		ProofCheck:   time.Duration(s.ct.proofCheckNS.Get()),
	}
	// Per-run values (see the field comments): the registry counters of
	// the same names accumulate across runs sharing one Metrics.
	st.SATVars = s.runSATVars
	st.SATClauses = s.runSATClauses
	st.SATConfl = s.runSATConfl
	st.SATExported = s.runSATExported
	st.SATImported = s.runSATImported
	st.ProjHits = s.runProjHits
	st.ProjMisses = s.runProjMisses
	st.ProjSaved = s.runProjSaved
	st.WarmStart = s.warmStart
	st.MCVisitedBytes = s.runVisitedBytes
	st.MCWorkerStates = append([]int(nil), s.mcWorkerStates...)
	st.SATWorkers = append([]sat.WorkerStats(nil), s.satWorkers...)
	return st
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// satSolver is the incremental-solving interface the CEGIS loop needs;
// both the plain sat.Solver and the racing sat.Portfolio satisfy it.
type satSolver interface {
	sat.Adder
	SetProof(*drat.Recorder)
	SetTracer(*obs.Tracer)
	SetSpanParent(obs.SpanID)
	Solve(assumptions ...sat.Lit) bool
	SolveCancel(cancel *atomic.Bool, assumptions ...sat.Lit) (sat, canceled bool)
	Value(v int) bool
	NumVars() int
	NumClauses() int
	Conflicts() int64
}

// newSolver picks the solving backend: a clause-sharing portfolio of
// diversified workers when parallelism allows, else the deterministic
// single solver.
func newSolver(parallelism int) satSolver {
	if parallelism > 1 {
		return sat.NewPortfolio(parallelism)
	}
	return sat.New()
}

// New prepares a synthesizer: lowering, layout, hole inputs, and the
// structural constraints of the candidate space.
func New(sk *desugar.Sketch, opts Options) (*Synthesizer, error) {
	opts = opts.defaults()
	s := &Synthesizer{Sk: sk, opts: opts}
	s.tr = opts.Trace
	s.met = opts.Metrics
	if s.met == nil {
		s.met = obs.NewMetrics()
	}
	s.ct = newCounters(s.met)

	t0 := time.Now()
	sp := s.tr.Start("setup.lower", opts.TraceParent)
	prog, err := ir.Lower(sk)
	if err != nil {
		return nil, err
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		return nil, err
	}
	s.Prog, s.Layout = prog, layout
	d := time.Since(t0)
	s.ct.vmodelNS.Add(int64(d))
	sp.EndDur(d, obs.Str(obs.AttrPhase, obs.PhaseVModel))

	t0 = time.Now()
	sp = s.tr.Start("setup.encode", opts.TraceParent)
	// Warm start: check a previously built encoding context out of the
	// cross-request store. The hash-consed builder makes reuse free of
	// surprises — re-evaluating the structural constraints below returns
	// the literals already in the builder — and the projection cache
	// arrives with earlier runs' trace prefixes memoized. A context that
	// does not structurally match the sketch (a WarmKey collision) is
	// dropped, never trusted.
	if opts.Warm != nil && opts.WarmKey != "" && prog.Concurrent() {
		if w := opts.Warm.Acquire(opts.WarmKey); w != nil {
			if warmMatches(w, sk) {
				s.b, s.holes, s.projCache = w.B, w.Holes, w.Cache
				s.warmStart = true
			}
		}
	}
	if s.b == nil {
		s.b = circuit.NewBuilder()
		s.holes = sym.HoleInputs(s.b, sk)
	}
	s.solver = newSolver(opts.Parallelism)
	s.solver.SetTracer(opts.Trace)
	if opts.Proof {
		// Attach before the first AddClause: the recorder must see
		// every problem clause or later replays cannot close.
		s.proof = drat.NewRecorder()
		s.solver.SetProof(s.proof)
	}
	s.vmap = circuit.NewVarMap()
	s.holeVars = make([][]int, len(sk.Holes))
	for i, w := range s.holes {
		vars := make([]int, len(w))
		for j, in := range w {
			vars[j] = s.b.SATVar(s.solver, s.vmap, in)
		}
		s.holeVars[i] = vars
	}

	// Structural constraints: reorder permutations, repeat bounds, and
	// generator index ranges.
	ev := sym.New(s.b, layout, s.holes)
	for ci, c := range sk.Constraints {
		lit := ev.EvalConstraint(c)
		if opts.WatchCandidate != nil && !s.b.Eval(s.inputAssignment(opts.WatchCandidate), lit) {
			opts.Verbose("WATCH: structural constraint %d (%s) is false on the watched candidate", ci, types.ExprString(c))
		}
		s.solver.AddClause(s.b.ToSAT(s.solver, s.vmap, lit))
	}
	if err := ev.Err(); err != nil {
		return nil, err
	}
	for i, m := range sk.Holes {
		if m.Kind != desugar.HoleChoice {
			continue
		}
		valid := circuit.False
		for k := 0; k < m.Choices; k++ {
			valid = s.b.Or(valid, s.b.EqW(s.holes[i], circuit.ConstW(m.Bits, int64(k))))
		}
		if opts.WatchCandidate != nil && !s.b.Eval(s.inputAssignment(opts.WatchCandidate), valid) {
			opts.Verbose("WATCH: choice-range constraint for hole %d is false on the watched candidate", i)
		}
		s.solver.AddClause(s.b.ToSAT(s.solver, s.vmap, valid))
	}
	d = time.Since(t0)
	s.ct.smodelNS.Add(int64(d))
	sp.EndDur(d, obs.Str(obs.AttrPhase, obs.PhaseSModel))
	if opts.WatchCandidate != nil {
		var assume []sat.Lit
		for i, vars := range s.holeVars {
			for j, sv := range vars {
				bit := (opts.WatchCandidate.Value(i)>>uint(j))&1 == 1
				assume = append(assume, sat.MkLit(sv, !bit))
			}
		}
		if !s.solver.Solve(assume...) {
			opts.Verbose("WATCH: initial structural constraints already contradict the watched candidate")
		} else {
			opts.Verbose("WATCH: initial constraints admit the watched candidate")
		}
	}
	return s, nil
}

// warmMatches verifies a checked-out warm context structurally fits the
// sketch: one hole input word per hole, each of the hole's bit width.
// Desugaring is deterministic, so a context built from the same
// (source, target, desugar options) always matches; anything else is a
// key collision and must be rebuilt cold.
func warmMatches(w *project.WarmState, sk *desugar.Sketch) bool {
	if w.B == nil || w.Cache == nil || len(w.Holes) != len(sk.Holes) {
		return false
	}
	for i, m := range sk.Holes {
		if len(w.Holes[i]) != m.Bits {
			return false
		}
	}
	return true
}

// Release returns the synthesizer's encoding context — builder, hole
// inputs, projection cache — to the warm store for the next run of the
// same sketch. It is idempotent and a no-op without Options.Warm, for
// sequential sketches (no projection cache), or before the first
// concurrent Synthesize call. The synthesizer must not be used again
// after Release: another run may check the context out immediately.
func (s *Synthesizer) Release() {
	if s.released || s.opts.Warm == nil || s.opts.WarmKey == "" || s.projCache == nil {
		return
	}
	s.released = true
	s.opts.Warm.Release(s.opts.WarmKey, &project.WarmState{
		B:     s.b,
		Holes: s.holes,
		Cache: s.projCache,
	})
}

// sampleHeap records the heap high-water mark. runtime.ReadMemStats
// stops the world, so the CEGIS loop reaches this only through
// maybeSampleHeap (gated by Options.HeapSampleEvery) plus one
// unconditional sample at the end of Synthesize.
func (s *Synthesizer) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.ct.heapMax.Max(int64(ms.HeapAlloc))
}

func (s *Synthesizer) maybeSampleHeap(iter int) {
	if every := s.opts.HeapSampleEvery; every > 0 && iter%every == 0 {
		s.sampleHeap()
	}
}

// certifyUNSAT snapshots the recorder and replays the proof of the
// UNSAT verdict just returned. A failed replay is a soundness bug and
// surfaces as an error, never a silent downgrade.
func (s *Synthesizer) certifyUNSAT(r *drat.Recorder, assumptions []int, what string) (*drat.Certificate, error) {
	if r == nil {
		return nil, nil
	}
	t0 := time.Now()
	sp := s.tr.Start("proof.certify", s.runSpan.ID())
	cert := r.Certificate(assumptions)
	cs, err := cert.Verify()
	d := time.Since(t0)
	s.ct.proofLemmas.Add(int64(cs.Lemmas))
	s.ct.proofChecked.Add(int64(cs.Checked))
	s.ct.proofCore.Add(int64(cs.Core))
	s.ct.proofCheckNS.Add(int64(d))
	sp.EndDur(d, obs.Int("lemmas", int64(cs.Lemmas)), obs.Int("checked", int64(cs.Checked)))
	if err != nil {
		return nil, fmt.Errorf("core: DRAT replay of %s UNSAT verdict failed: %w", what, err)
	}
	s.opts.Verbose("certified %s UNSAT verdict: %d lemmas, %d checked", what, cs.Lemmas, cs.Checked)
	return cert, nil
}

// canceled reports whether the external cancellation token fired.
func (s *Synthesizer) canceled() bool {
	return s.opts.Cancel != nil && s.opts.Cancel.Load()
}

// extractCandidate reads the hole assignment out of the solver's model.
func (s *Synthesizer) extractCandidate() desugar.Candidate {
	cand := make(desugar.Candidate, len(s.holeVars))
	for i, vars := range s.holeVars {
		v := int64(0)
		for j, sv := range vars {
			if s.solver.Value(sv) {
				v |= 1 << uint(j)
			}
		}
		cand[i] = v
	}
	return cand
}

// nextCandidate asks the SAT solver for a candidate consistent with all
// observations so far. err is non-nil only on cancellation. parent is
// the span the solve nests under (the current iteration).
func (s *Synthesizer) nextCandidate(parent obs.SpanID) (desugar.Candidate, bool, error) {
	sp := s.tr.Start("cegis.solve", parent)
	if s.tr != nil {
		s.solver.SetSpanParent(sp.ID())
	}
	t0 := time.Now()
	okSat, canceled := s.solver.SolveCancel(s.opts.Cancel)
	d := time.Since(t0)
	s.ct.ssolveNS.Add(int64(d))
	sp.EndDur(d, obs.Str(obs.AttrPhase, obs.PhaseSSolve), obs.Int("sat", b2i(okSat)))
	if canceled {
		return nil, false, ErrCanceled
	}
	if !okSat {
		return nil, false, nil
	}
	return s.extractCandidate(), true, nil
}

// Synthesize runs the appropriate CEGIS loop.
func (s *Synthesizer) Synthesize() (*Result, error) {
	start := time.Now()
	s.runSpan = s.tr.Start("cegis.synthesize", s.opts.TraceParent)
	// Snapshot the solver backend's lifetime totals so the end-of-run
	// fold can report this run's deltas (Enumerate reuses the solver
	// across runs).
	s.baseConfl = s.solver.Conflicts()
	s.baseExported, s.baseImported = 0, 0
	if p, ok := s.solver.(*sat.Portfolio); ok {
		for _, w := range p.WorkerStats() {
			s.baseExported += w.Exported
			s.baseImported += w.Imported
		}
	}
	if c := s.projCache; c != nil {
		s.baseProjHits, s.baseProjMisses, s.baseProjSaved = c.Hits, c.Misses, c.SavedEntries
	} else {
		s.baseProjHits, s.baseProjMisses, s.baseProjSaved = 0, 0, 0
	}
	var res *Result
	var err error
	if s.Prog.Concurrent() {
		res, err = s.synthesizeConcurrent()
	} else {
		res, err = s.synthesizeSequential()
	}
	if err != nil {
		status := "error"
		if errors.Is(err, ErrCanceled) {
			status = "canceled"
		}
		s.runSpan.End(obs.Str("status", status))
		return nil, err
	}
	// All worker goroutines are joined by now, so the solver and the
	// projection cache are quiescent; fold this run's deltas into the
	// registry. Everything summable is Add-ed (a registry shared by
	// several runs accumulates) and sizes are Max-ed (monotone
	// high-water): no Set, so repeated runs never overwrite each other.
	s.runSATVars = s.solver.NumVars()
	s.runSATClauses = s.solver.NumClauses()
	s.runSATConfl = s.solver.Conflicts() - s.baseConfl
	s.ct.satVars.Max(int64(s.runSATVars))
	s.ct.satClauses.Max(int64(s.runSATClauses))
	s.ct.satConfl.Add(s.runSATConfl)
	var exp, imp int64
	if p, ok := s.solver.(*sat.Portfolio); ok {
		ws := p.WorkerStats()
		for _, w := range ws {
			exp += w.Exported
			imp += w.Imported
		}
		s.satWorkers = ws
	}
	s.runSATExported = exp - s.baseExported
	s.runSATImported = imp - s.baseImported
	s.ct.satExported.Add(s.runSATExported)
	s.ct.satImported.Add(s.runSATImported)
	if c := s.projCache; c != nil {
		s.runProjHits = c.Hits - s.baseProjHits
		s.runProjMisses = c.Misses - s.baseProjMisses
		s.runProjSaved = c.SavedEntries - s.baseProjSaved
		s.ct.projHits.Add(s.runProjHits)
		s.ct.projMisses.Add(s.runProjMisses)
		s.ct.projSaved.Add(s.runProjSaved)
	}
	s.sampleHeap()
	total := time.Since(start)
	s.ct.totalNS.Set(int64(total))
	res.Stats = s.statsView()
	s.runSpan.EndDur(total,
		obs.Str("status", "done"),
		obs.Int("resolved", b2i(res.Resolved)),
		obs.Int("iterations", s.ct.iterations.Get()))
	return res, nil
}

// synthesizeConcurrent is the CEGIS loop of §6: candidates are model
// checked over all interleavings; failing traces are projected onto the
// candidate space and added as inductive constraints. The phases
// strictly alternate at every Parallelism: each one fans out internally
// (a portfolio solve, a sharded model check) and joins its workers
// before the next starts.
func (s *Synthesizer) synthesizeConcurrent() (*Result, error) {
	if s.projCache == nil {
		s.projCache = project.NewCache(s.b, s.Layout, s.holes)
	}
	var lastTrace *mc.Trace
	for iter := 1; iter <= s.opts.MaxIterations; iter++ {
		s.ct.iterations.Set(int64(iter))
		if s.canceled() {
			return nil, ErrCanceled
		}
		isp := s.tr.Start(obs.SpanIteration, s.runSpan.ID())
		endIter := func(status string, states, traces int) {
			if isp.Active() {
				isp.End(obs.Int("iter", int64(iter)),
					obs.Str("status", status),
					obs.Int("states", int64(states)),
					obs.Int("traces", int64(traces)))
			}
		}
		cand, ok, err := s.nextCandidate(isp.ID())
		if err != nil {
			endIter("canceled", 0, 0)
			return nil, err
		}
		if !ok {
			s.opts.Verbose("iteration %d: candidate space exhausted (UNSAT) — sketch cannot be resolved", iter)
			cert, cerr := s.certifyUNSAT(s.proof, nil, "candidate-space exhaustion")
			endIter("exhausted", 0, 0)
			if cerr != nil {
				return nil, cerr
			}
			return &Result{Resolved: false, LastTrace: lastTrace, Certificate: cert}, nil
		}
		s.opts.Verbose("iteration %d: model checking candidate %v", iter, cand)

		vsp := s.tr.Start("cegis.verify", isp.ID())
		t0 := time.Now()
		mres, err := mc.Check(s.Layout, cand, mc.Options{
			MaxStates:   s.opts.MCMaxStates,
			MaxTraces:   s.opts.TracesPerIteration,
			Parallelism: s.opts.Parallelism,
			Cancel:      s.opts.Cancel,
			Tracer:      s.tr,
			ParentSpan:  vsp.ID(),
		})
		d := time.Since(t0)
		s.ct.vsolveNS.Add(int64(d))
		vsp.EndDur(d, obs.Str(obs.AttrPhase, obs.PhaseVSolve))
		if err != nil {
			if errors.Is(err, mc.ErrCanceled) {
				err = ErrCanceled
				endIter("canceled", 0, 0)
			} else {
				endIter("error", 0, 0)
			}
			return nil, err
		}
		s.ct.mcStates.Add(int64(mres.States))
		s.ct.mcTrans.Add(int64(mres.Trans))
		s.ct.mcVisitedBytes.Max(int64(mres.VisitedBytes))
		if mres.VisitedBytes > s.runVisitedBytes {
			s.runVisitedBytes = mres.VisitedBytes
		}
		for len(s.mcWorkerStates) < len(mres.WorkerStates) {
			s.mcWorkerStates = append(s.mcWorkerStates, 0)
		}
		for i, n := range mres.WorkerStates {
			s.mcWorkerStates[i] += n
		}
		s.maybeSampleHeap(iter)
		if mres.OK {
			s.opts.Verbose("iteration %d: candidate verified (%d states)", iter, mres.States)
			endIter("resolved", mres.States, 0)
			return &Result{Resolved: true, Candidate: cand}, nil
		}
		lastTrace = mres.Trace
		s.opts.Verbose("iteration %d: %d counterexample(s): %s", iter, len(mres.Traces), mres.Trace)

		psp := s.tr.Start("cegis.project", isp.ID())
		if s.tr != nil {
			s.projCache.Tracer = s.tr
			s.projCache.Parent = psp.ID()
		}
		t0 = time.Now()
		refuted := false
		candAsn := s.inputAssignment(cand)
		for _, tr := range mres.Traces {
			failLit, err := s.projCache.Encode(project.Build(s.Prog, tr))
			if err != nil {
				endIter("error", mres.States, len(mres.Traces))
				return nil, err
			}
			s.solver.AddClause(s.b.ToSAT(s.solver, s.vmap, failLit.Not()))
			if s.b.Eval(candAsn, failLit) {
				refuted = true
			}
		}
		d = time.Since(t0)
		s.ct.smodelNS.Add(int64(d))
		psp.EndDur(d,
			obs.Str(obs.AttrPhase, obs.PhaseSModel),
			obs.Int("traces", int64(len(mres.Traces))))
		s.maybeSampleHeap(iter)

		// Guard against projections too weak to eliminate the failing
		// candidate (would loop forever): exclude it explicitly then.
		if !refuted {
			s.opts.Verbose("iteration %d: projection kept the candidate; excluding it directly", iter)
			s.excludeCandidate(cand)
		}
		if s.opts.WatchCandidate != nil {
			var assume []sat.Lit
			for i, vars := range s.holeVars {
				for j, sv := range vars {
					bit := (s.opts.WatchCandidate.Value(i)>>uint(j))&1 == 1
					assume = append(assume, sat.MkLit(sv, !bit))
				}
			}
			if !s.solver.Solve(assume...) {
				s.opts.Verbose("iteration %d: WATCH: clause set now contradicts the watched candidate", iter)
			}
		}
		endIter("refuted", mres.States, len(mres.Traces))
	}
	return nil, fmt.Errorf("core: no convergence after %d iterations", s.opts.MaxIterations)
}

// inputAssignment maps the builder's hole input literals to the bits of
// a concrete candidate.
func (s *Synthesizer) inputAssignment(cand desugar.Candidate) map[circuit.Lit]bool {
	m := map[circuit.Lit]bool{}
	for i, w := range s.holes {
		for j, in := range w {
			m[in] = (cand.Value(i)>>uint(j))&1 == 1
		}
	}
	return m
}

// excludeCandidate adds a blocking clause for one exact candidate.
func (s *Synthesizer) excludeCandidate(cand desugar.Candidate) {
	var lits []sat.Lit
	for i, vars := range s.holeVars {
		for j, sv := range vars {
			bit := (cand.Value(i)>>uint(j))&1 == 1
			lits = append(lits, sat.MkLit(sv, bit))
		}
	}
	s.solver.AddClause(lits...)
}

// synthesizeSequential is the CEGIS loop of §5: candidates are verified
// against the spec over all inputs via SAT; counterexample inputs
// become observations.
func (s *Synthesizer) synthesizeSequential() (*Result, error) {
	for iter := 1; iter <= s.opts.MaxIterations; iter++ {
		s.ct.iterations.Set(int64(iter))
		if s.canceled() {
			return nil, ErrCanceled
		}
		isp := s.tr.Start(obs.SpanIteration, s.runSpan.ID())
		endIter := func(status string) {
			if isp.Active() {
				isp.End(obs.Int("iter", int64(iter)), obs.Str("status", status))
			}
		}
		cand, ok, err := s.nextCandidate(isp.ID())
		if err != nil {
			endIter("canceled")
			return nil, err
		}
		if !ok {
			cert, cerr := s.certifyUNSAT(s.proof, nil, "candidate-space exhaustion")
			endIter("exhausted")
			if cerr != nil {
				return nil, cerr
			}
			return &Result{Resolved: false, Certificate: cert}, nil
		}
		s.opts.Verbose("iteration %d: verifying candidate %v", iter, cand)

		cex, verr := s.verifySequential(cand, isp.ID())
		if verr != nil {
			if errors.Is(verr, ErrCanceled) {
				endIter("canceled")
			} else {
				endIter("error")
			}
			return nil, verr
		}
		s.maybeSampleHeap(iter)
		if cex == nil {
			endIter("resolved")
			return &Result{Resolved: true, Candidate: cand, Certificate: s.vcert}, nil
		}
		s.opts.Verbose("iteration %d: counterexample input %v", iter, cex)

		osp := s.tr.Start("cegis.observe", isp.ID())
		t0 := time.Now()
		if err := s.addInputObservation(cex); err != nil {
			endIter("error")
			return nil, err
		}
		d := time.Since(t0)
		s.ct.smodelNS.Add(int64(d))
		osp.EndDur(d, obs.Str(obs.AttrPhase, obs.PhaseSModel))
		endIter("refuted")
	}
	return nil, fmt.Errorf("core: no convergence after %d iterations", s.opts.MaxIterations)
}

// inputWidth gives the symbolic width of a sequential input cell.
func (s *Synthesizer) inputWidth(v ir.Var) (int, error) {
	switch v.Type.Base {
	case types.Int:
		return s.Prog.W, nil
	case types.Bool:
		return 1, nil
	}
	return 0, fmt.Errorf("core: sequential input %s must be int or bool (got %s)", v.Name, v.Type)
}

// equivalenceViolation runs the sketch and (if present) the spec
// symbolically in vb, binding the harness inputs to inputWords
// (flattened per input variable, one word per array cell), and returns
// the violation literal: the sketch fails, or — when the spec does not
// itself fail — the outputs differ.
func (s *Synthesizer) equivalenceViolation(vb *circuit.Builder, holes []circuit.Word, inputWords [][]circuit.Word) (circuit.Lit, error) {
	p := s.Prog

	e1 := sym.New(vb, s.Layout, holes)
	for i, in := range p.Inputs {
		if err := e1.SetVarCells(p.Prologue, in.Name, inputWords[i]); err != nil {
			return circuit.False, err
		}
	}
	e1.RunSeq(p.GlobalInit, circuit.True)
	e1.RunSeq(p.Prologue, circuit.True)
	if err := e1.Err(); err != nil {
		return circuit.False, err
	}
	violation := e1.Fail

	if p.Spec != nil {
		e2 := sym.New(vb, s.Layout, holes)
		for i := range p.Inputs {
			if err := e2.SetVarCells(p.Spec, p.Spec.Locals[i].Name, inputWords[i]); err != nil {
				return circuit.False, err
			}
		}
		e2.RunSeq(p.GlobalInit, circuit.True)
		e2.RunSeq(p.Spec, circuit.True)
		if err := e2.Err(); err != nil {
			return circuit.False, err
		}
		out1, err := e1.ReadVar(p.Prologue, p.ResultVar)
		if err != nil {
			return circuit.False, err
		}
		out2, err := e2.ReadVar(p.Spec, p.SpecResultVar)
		if err != nil {
			return circuit.False, err
		}
		if len(out1) != len(out2) {
			return circuit.False, fmt.Errorf("core: result arity mismatch")
		}
		differ := circuit.False
		for i := range out1 {
			w := len(out1[i])
			if len(out2[i]) > w {
				w = len(out2[i])
			}
			eq := vb.EqW(circuit.ZextW(out1[i], w), circuit.ZextW(out2[i], w))
			differ = vb.Or(differ, eq.Not())
		}
		violation = vb.Or(violation, vb.And(e2.Fail.Not(), differ))
	}
	return violation, nil
}

// verifySequential checks one candidate against the spec on all inputs
// by SAT-solving for a violating input. The solver instance is reused
// across iterations (building a fresh backend — a whole portfolio under
// parallelism — per candidate dominated small-benchmark verify time);
// the candidate's violation goal is a Solve assumption, never a clause.
func (s *Synthesizer) verifySequential(cand desugar.Candidate, parent obs.SpanID) ([][]int64, error) {
	esp := s.tr.Start("verify.encode", parent)
	t0 := time.Now()
	if s.verifier == nil {
		s.vb = circuit.NewBuilder()
		s.verifier = newSolver(s.opts.Parallelism)
		s.verifier.SetTracer(s.opts.Trace)
		if s.opts.Proof {
			s.vproof = drat.NewRecorder()
			s.verifier.SetProof(s.vproof)
		}
		s.vvmap = circuit.NewVarMap()
	}
	vb := s.vb
	holeConsts := sym.HoleConsts(s.Sk, cand)

	inputWords := make([][]circuit.Word, len(s.Prog.Inputs))
	for i, in := range s.Prog.Inputs {
		w, err := s.inputWidth(in)
		if err != nil {
			return nil, err
		}
		n := 1
		if in.Type.IsArray() {
			n = in.Type.Len
		}
		ws := make([]circuit.Word, n)
		for c := 0; c < n; c++ {
			ws[c] = vb.InputW(w)
		}
		inputWords[i] = ws
	}

	violation, err := s.equivalenceViolation(vb, holeConsts, inputWords)
	if err != nil {
		return nil, err
	}
	vs, vm := s.verifier, s.vvmap
	goal := vb.ToSAT(vs, vm, violation)
	d := time.Since(t0)
	s.ct.vmodelNS.Add(int64(d))
	esp.EndDur(d, obs.Str(obs.AttrPhase, obs.PhaseVModel))

	ssp := s.tr.Start("verify.solve", parent)
	if s.tr != nil {
		vs.SetSpanParent(ssp.ID())
	}
	t0 = time.Now()
	found, canceled := vs.SolveCancel(s.opts.Cancel, goal)
	d = time.Since(t0)
	s.ct.vsolveNS.Add(int64(d))
	ssp.EndDur(d, obs.Str(obs.AttrPhase, obs.PhaseVSolve), obs.Int("sat", b2i(found)))
	if canceled {
		return nil, ErrCanceled
	}
	if !found {
		// Verified on all inputs: the verdict is "UNSAT under the goal
		// assumption" (the candidate's violation circuit is the only
		// live goal; stale goals from earlier candidates stay free).
		cert, cerr := s.certifyUNSAT(s.vproof, []int{sat.Dimacs(goal)}, "sequential verification")
		if cerr != nil {
			return nil, cerr
		}
		s.vcert = cert
		return nil, nil
	}
	cex := make([][]int64, len(inputWords))
	for i, ws := range inputWords {
		vals := make([]int64, len(ws))
		for c, word := range ws {
			v := int64(0)
			for j, in := range word {
				sv := vb.SATVar(vs, vm, in)
				if vs.Value(sv) {
					v |= 1 << uint(j)
				}
			}
			vals[c] = v
		}
		cex[i] = vals
	}
	return cex, nil
}

// addInputObservation adds P(x, c) for a concrete counterexample input
// to the incremental synthesis instance (§5: the universal quantifier
// over the observation set unrolls into a conjunction).
func (s *Synthesizer) addInputObservation(cex [][]int64) error {
	inputWords := make([][]circuit.Word, len(cex))
	for i, vals := range cex {
		w, err := s.inputWidth(s.Prog.Inputs[i])
		if err != nil {
			return err
		}
		ws := make([]circuit.Word, len(vals))
		for c, v := range vals {
			ws[c] = circuit.ConstW(w, v)
		}
		inputWords[i] = ws
	}
	violation, err := s.equivalenceViolation(s.b, s.holes, inputWords)
	if err != nil {
		return err
	}
	s.solver.AddClause(s.b.ToSAT(s.solver, s.vmap, violation.Not()))
	return nil
}

// Exclude adds a blocking clause ruling out one candidate, so the next
// Synthesize call returns a different solution. This is the paper's
// §8.3.1 extension hook: "the CEGIS algorithm can trivially produce
// multiple correct candidates", e.g. to pick the best by autotuning.
func (s *Synthesizer) Exclude(cand desugar.Candidate) {
	s.excludeCandidate(cand)
}

// Enumerate returns up to max distinct correct candidates by repeatedly
// synthesizing and excluding. It stops early when the space is
// exhausted.
func (s *Synthesizer) Enumerate(max int) ([]*Result, error) {
	var out []*Result
	for len(out) < max {
		r, err := s.Synthesize()
		if err != nil {
			return out, err
		}
		if !r.Resolved {
			break
		}
		out = append(out, r)
		s.Exclude(r.Candidate)
	}
	return out, nil
}
