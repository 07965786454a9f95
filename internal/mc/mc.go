// Package mc is the explicit-state model checker PSKETCH needs from its
// verifier (the paper used SPIN): given a concrete candidate, it
// explores all thread interleavings of the lowered program, checking
// assertions, memory safety, deadlock freedom, and bounded termination,
// and produces a counterexample trace on failure (§6).
//
// Three sound reductions keep the state space tractable:
//
//   - steps whose guards are false are skipped without a scheduling
//     point (they are not executed at all);
//   - steps that touch only thread-local state run eagerly after the
//     scheduled step (they commute with every other thread's steps;
//     disable with NoLocalFusion);
//   - a footprint-based partial-order reduction (the role SPIN's POR
//     plays in the paper): a static analysis over-approximates the
//     shared cells each step reads and writes (internal/ir), and the
//     search expands only a persistent subset of the enabled threads at
//     each state, carrying sleep sets down the DFS to skip commuting
//     interleavings it has already covered (disable with NoPOR).
//
// The visited table records, per state, its persistent set and which
// of its transitions were already explored, so revisits through other
// paths only do new work. States are fingerprinted with an
// incrementally maintained Zobrist hash (updated from each step's
// touched footprint, not recomputed), and Options.Compress can swap the
// fingerprint table for a SPIN-style collapse-compressed exact table;
// see ARCHITECTURE.md's state-space reduction stack section for how the
// pieces interact.
//
// # Concurrency contract
//
// Check is safe to call from multiple goroutines on the same Layout
// and candidate: the layout and lowered program are read-only, and all
// mutable search state lives in per-call structures.
//
// With Options.Parallelism > 1 the search itself is parallel: the DFS
// is sharded at the root by first-event choice, each shard explored by
// a worker goroutine against a lock-striped shared visited set, and a
// shared cancellation flag stops every worker as soon as the trace
// budget is met (so counterexamples surface as soon as any shard finds
// one). Parallel search is sound and complete over the same
// interleaving space, but nondeterministic in which counterexample it
// reports first and in the exact States count (shards race to claim
// states, and with POR the sleep sets depend on claim order).
// Parallelism <= 1 runs the sequential DFS and is fully deterministic.
// Options.Hook forces the sequential path with POR off (the hook
// observes the full schedule space).
package mc

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"psketch/internal/desugar"
	"psketch/internal/interp"
	"psketch/internal/ir"
	"psketch/internal/obs"
	"psketch/internal/state"
)

// Event is one executed step of the fork phase.
type Event struct {
	Thread int // 0-based forked thread index
	Step   int // index into the thread's Seq.Steps
}

// Phase locates a failure.
type Phase int

// Failure phases.
const (
	PhasePrologue Phase = iota
	PhaseThreads
	PhaseEpilogue
)

// Trace is a counterexample: the schedule that led to a violation.
type Trace struct {
	Events  []Event
	Failure *interp.Failure
	Phase   Phase
	// FailThread is the forked thread whose step failed (-1 for
	// prologue/epilogue failures and deadlocks).
	FailThread int
	// FailStep is the failing step index within FailThread.
	FailStep int
	// Deadlocked lists, per blocked thread, the step it is blocked at.
	Deadlocked []Event
}

func (t *Trace) String() string {
	if t == nil {
		return "ok"
	}
	s := fmt.Sprintf("%s (phase %d", t.Failure, t.Phase)
	if t.FailThread >= 0 {
		s += fmt.Sprintf(", thread %d step %d", t.FailThread, t.FailStep)
	}
	return s + fmt.Sprintf(") after %d events", len(t.Events))
}

// Options bound the search.
type Options struct {
	MaxStates int // default 4,000,000
	// Hook, when set, observes every executed step (for debugging and
	// trace replay); it must not retain st. A hook forces the
	// sequential search and disables the partial-order reduction, so
	// the full schedule space is observed.
	Hook func(ev Event, st *state.State)
	// NoLocalFusion disables the eager execution of thread-local steps,
	// used to cross-check its soundness in tests.
	NoLocalFusion bool
	// NoPOR disables the footprint-based partial-order reduction
	// (persistent sets + sleep sets), used to cross-check its soundness
	// in tests and to measure its effect.
	NoPOR bool
	// Compress selects the visited-set representation: "" (default)
	// is the exact open-addressed fingerprint table, and "collapse"
	// interns state components SPIN-style and keys on id tuples (exact,
	// full contents compared, so it doubles as a hash-collision
	// cross-check). Compression forces the sequential search.
	Compress string
	// MaxTraces asks the search to keep going after the first
	// counterexample and return up to this many distinct failing
	// traces (default 1, the paper's behaviour). More traces per
	// verifier call means more observations per CEGIS iteration.
	// With POR enabled, commuting variants of one failure count as one
	// schedule, so fewer than MaxTraces distinct traces may be found.
	MaxTraces int
	// Parallelism shards the search across this many worker goroutines
	// (<= 1, or a set Hook, runs the deterministic sequential DFS).
	Parallelism int
	// Cancel, when set and stored true by another goroutine, makes the
	// search unwind cooperatively; Check then returns ErrCanceled. The
	// CEGIS loop passes its own cancellation token through.
	Cancel *atomic.Bool
	// Tracer, when set, emits one "mc.check" span per Check (states,
	// transitions, POR-pruned and sleep-set-skipped transition counts)
	// with one "mc.worker" child per parallel shard worker, parented
	// under ParentSpan. Nil keeps the DFS hot path allocation-free.
	Tracer     *obs.Tracer
	ParentSpan obs.SpanID
}

// ErrCanceled is returned by Check when Options.Cancel fired before the
// search finished. A canceled check produced no verdict.
var ErrCanceled = errors.New("mc: canceled")

// Result is the verifier's verdict.
type Result struct {
	OK     bool
	Trace  *Trace   // nil when OK (the first counterexample)
	Traces []*Trace // all collected counterexamples (≥1 when !OK)
	States int      // distinct states expanded
	Trans  int      // transitions executed
	// Workers is the number of parallel search workers used (0 for the
	// sequential DFS); WorkerStates counts the states each expanded.
	Workers      int
	WorkerStates []int
	// VisitedBytes estimates the peak memory held by the visited set.
	VisitedBytes uint64
}

// Check explores all interleavings of the candidate.
func Check(l *state.Layout, cand desugar.Candidate, opts Options) (*Result, error) {
	if opts.MaxStates == 0 {
		opts.MaxStates = 4_000_000
	}
	if opts.MaxTraces == 0 {
		opts.MaxTraces = 1
	}
	p := l.Prog
	if !p.Concurrent() {
		return nil, fmt.Errorf("mc: program has no fork; use the sequential checker")
	}
	m := &checker{l: l, p: p, cand: cand, opts: opts}
	m.por = !opts.NoPOR && opts.Hook == nil
	// The footprint tables drive the POR and the incremental hashing's
	// per-step write lists, so they are built even with POR off.
	m.pt = buildPOR(l, ir.Footprints(p, cand))
	m.hz = newHasher(l, m.pt)
	switch opts.Compress {
	case "":
		m.tab = newFpTable()
	case "collapse":
		m.col = newCollapse(l)
	default:
		return nil, fmt.Errorf("mc: unknown Compress mode %q (want \"\" or \"collapse\")", opts.Compress)
	}
	m.initEval()
	m.span = opts.Tracer.Start("mc.check", opts.ParentSpan)

	st := l.NewState()
	// Global initializers and prologue run deterministically.
	for _, seq := range []*ir.Seq{p.GlobalInit, p.Prologue} {
		if fail := m.runSequential(st, seq); fail != nil {
			tr := &Trace{Failure: fail, Phase: PhasePrologue, FailThread: -1}
			res := &Result{OK: false, Trace: tr, Traces: []*Trace{tr}}
			m.endSpan(res, nil)
			return res, nil
		}
	}

	if opts.Parallelism > 1 && opts.Hook == nil && opts.Compress == "" {
		res, err := m.checkParallel(st)
		m.finishResult(res)
		m.endSpan(res, err)
		return res, err
	}

	var path []Event
	if err := m.dfs(st, &path); err != nil {
		m.endSpan(nil, err)
		return nil, err
	}
	res := &Result{OK: len(m.traces) == 0, Traces: m.traces, States: m.states, Trans: m.trans}
	if !res.OK {
		res.Trace = m.traces[0]
	}
	m.finishResult(res)
	m.endSpan(res, nil)
	return res, nil
}

// finishResult fills the memory estimate shared by both search modes.
func (m *checker) finishResult(res *Result) {
	if res == nil {
		return
	}
	switch {
	case m.col != nil:
		res.VisitedBytes = m.col.bytes()
	case m.tab != nil:
		res.VisitedBytes = m.tab.bytes()
	}
	if m.pvisited != nil {
		res.VisitedBytes = m.pvisited.bytes()
	}
}

// endSpan finishes the mc.check span with the search totals. The
// parallel path has already folded its workers' counters into m.
func (m *checker) endSpan(res *Result, err error) {
	if !m.span.Active() {
		return
	}
	if err != nil || res == nil {
		m.span.End(obs.Str("status", "error"))
		return
	}
	ok := int64(0)
	if res.OK {
		ok = 1
	}
	m.span.End(
		obs.Int("ok", ok),
		obs.Int("states", int64(res.States)),
		obs.Int("trans", int64(res.Trans)),
		obs.Int("traces", int64(len(res.Traces))),
		obs.Int("workers", int64(res.Workers)),
		obs.Int("por_pruned", m.porPruned),
		obs.Int("sleep_skips", m.sleepSkips),
		obs.Int("visited_bytes", int64(res.VisitedBytes)))
}

type checker struct {
	l    *state.Layout
	p    *ir.Program
	cand desugar.Candidate
	opts Options

	por bool
	pt  *porTables // footprints for the fixed candidate (read-only)
	hz  *hasher    // incremental Zobrist hashing (read-only)

	// Exactly one visited backend is set (Options.Compress); the
	// parallel search uses its striped set instead (pvisited, kept for
	// the memory estimate).
	tab      *fpTable
	col      *collapseTab
	pvisited *stripedSet

	states int
	trans  int
	traces []*Trace

	// POR effectiveness counters (plain int adds on the hot path, no
	// allocation): transitions dropped by the persistent-set choice, and
	// transitions skipped because the sleep set already covered them.
	// Reported as mc.check span attributes when tracing is on.
	porPruned  int64
	sleepSkips int64
	span       obs.Span // the in-flight mc.check span (inactive when untraced)

	// Hot-path scratch: long-lived evaluation contexts (one per thread,
	// retargeted at the state under evaluation), a freelist of state
	// clones, and the epilogue scratch state.
	ctxs    []*interp.Ctx
	seqCtx  *interp.Ctx
	scratch *state.State
	free    []*state.State
}

// initEval builds the reusable evaluation contexts.
func (m *checker) initEval() {
	m.ctxs = make([]*interp.Ctx, len(m.p.Threads))
	for t, seq := range m.p.Threads {
		m.ctxs[t] = interp.NewCtx(m.l, nil, seq, m.cand)
	}
	m.seqCtx = interp.NewCtx(m.l, nil, nil, m.cand)
}

// cloneState takes a state off the freelist (or allocates) and copies
// st into it.
func (m *checker) cloneState(st *state.State) *state.State {
	if n := len(m.free); n > 0 {
		c := m.free[n-1]
		m.free = m.free[:n-1]
		c.CopyFrom(st)
		return c
	}
	return st.Clone()
}

// release returns a clone to the freelist once its subtree is explored.
func (m *checker) release(st *state.State) {
	m.free = append(m.free, st)
}

// scratchFrom copies st into the checker's persistent scratch state.
func (m *checker) scratchFrom(st *state.State) *state.State {
	if m.scratch == nil {
		m.scratch = st.Clone()
	} else {
		m.scratch.CopyFrom(st)
	}
	return m.scratch
}

// record stores a counterexample and reports whether the search should
// stop (trace budget reached).
func (m *checker) record(tr *Trace) bool {
	m.traces = append(m.traces, tr)
	return len(m.traces) >= m.opts.MaxTraces
}

// runSequential executes a deterministic sequence (prologue, epilogue,
// global init) to completion on st.
func (m *checker) runSequential(st *state.State, seq *ir.Seq) *interp.Failure {
	ctx := m.seqCtx
	ctx.Reset(st, seq)
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

// advance normalizes one thread: skips guard-false steps and eagerly
// runs local steps, recording executed events. It stops at the first
// shared (scheduling-relevant) step or at the end of the sequence.
func (m *checker) advance(st *state.State, t int, path *[]Event) *interp.Failure {
	seq := m.p.Threads[t]
	ctx := m.ctxs[t]
	ctx.Reset(st, seq)
	for {
		pc := int(st.PCs[t])
		if pc >= len(seq.Steps) {
			return nil
		}
		step := seq.Steps[pc]
		ok, f := ctx.EvalGuards(step)
		if f != nil {
			return f
		}
		if !ok {
			st.PCs[t] = int32(pc + 1)
			continue
		}
		if !step.Local || m.opts.NoLocalFusion {
			return nil
		}
		if m.opts.Hook != nil {
			m.opts.Hook(Event{Thread: t, Step: pc}, st)
		}
		if f := ctx.ExecBody(step); f != nil {
			*path = append(*path, Event{Thread: t, Step: pc})
			return f
		}
		*path = append(*path, Event{Thread: t, Step: pc})
		st.PCs[t] = int32(pc + 1)
	}
}

// normalize advances every thread (guard skips + eager local runs).
func (m *checker) normalize(st *state.State, path *[]Event) (int, *interp.Failure) {
	for t := range m.p.Threads {
		if f := m.advance(st, t, path); f != nil {
			return t, f
		}
	}
	return -1, nil
}

// debugHash, set by tests, cross-checks every incrementally maintained
// fingerprint against a full rehash.
var debugHash = false

// dfs explores the interleavings from the root state st; counterexamples
// accumulate in m.traces.
func (m *checker) dfs(st *state.State, path *[]Event) error {
	if t, f := m.normalize(st, path); f != nil {
		m.record(m.failTrace(*path, f, t))
		return nil
	}
	h1, h2 := m.hz.full(st)
	return m.expand(st, 0, path, h1, h2)
}

// dfsChild continues the search after executing a step of thread t:
// only t needs renormalizing (no other thread's locals changed), then
// the state is expanded under the child's sleep set. h1, h2 fingerprint
// st as passed in; normalization touches only t's block and PC, so the
// fingerprint is patched from the block delta.
func (m *checker) dfsChild(st *state.State, t int, sleep uint64, path *[]Event, h1, h2 uint64) error {
	b1, b2 := m.hz.block(st, t)
	if f := m.advance(st, t, path); f != nil {
		m.record(m.failTrace(*path, f, t))
		return nil
	}
	a1, a2 := m.hz.block(st, t)
	return m.expand(st, sleep, path, h1^b1^a1, h2^b2^a2)
}

// done reports whether the trace budget is met.
func (m *checker) done() bool {
	return len(m.traces) >= m.opts.MaxTraces
}

// expand explores the (normalized) state st. sleep is the set of
// threads whose current transitions are already covered by sibling
// subtrees; the visited table's done-mask extends that across revisits
// through other paths, so each (state, transition) pair is explored at
// most once.
func (m *checker) expand(st *state.State, sleep uint64, path *[]Event, h1, h2 uint64) error {
	if m.opts.Cancel != nil && m.opts.Cancel.Load() {
		return ErrCanceled
	}
	if debugHash {
		if f1, f2 := m.hz.full(st); f1 != h1 || f2 != h2 {
			panic("mc: incremental fingerprint diverged from full rehash")
		}
	}
	// Visited lookup through the selected backend.
	var idx int
	var ce *colEntry
	var fresh bool
	if m.col != nil {
		ce, fresh = m.col.slot(st)
	} else {
		idx, fresh = m.tab.slot(key16(h1, h2))
	}

	if fresh {
		m.states++
		if m.states > m.opts.MaxStates {
			return fmt.Errorf("mc: state space exceeds %d states", m.opts.MaxStates)
		}
		unfinished, enabled, unfin, tr := m.statusMask(st)
		switch {
		case tr != nil:
			tr.Events = append(tr.Events, *path...)
			m.record(tr)
		case unfinished == 0:
			// All threads done: check the epilogue on a scratch copy
			// (the search continues from other interleavings).
			if f := m.runSequential(m.scratchFrom(st), m.p.Epilogue); f != nil {
				m.record(m.failTraceEpilogue(*path, f))
			}
		case enabled == 0:
			blocked := m.blockedEvents(st, unfin)
			f := &interp.Failure{Kind: interp.FailDeadlock, Pos: m.p.Threads[blocked[0].Thread].Steps[blocked[0].Step].Pos}
			dtr := m.failTrace(*path, f, -1)
			dtr.Deadlocked = blocked
			m.record(dtr)
		default:
			pmask := enabled
			if m.por {
				pmask = m.pt.persistentSet(st, enabled, unfin)
				m.porPruned += int64(bits.OnesCount64(enabled &^ pmask))
			}
			if ce != nil {
				ce.pm = pmaskKnown | pmask
			} else {
				m.tab.pm[idx] = pmaskKnown | pmask
			}
		}
	}
	var pmw, done uint64
	if ce != nil {
		pmw, done = ce.pm, ce.done
	} else {
		pmw, done = m.tab.pm[idx], m.tab.done[idx]
	}
	avail := (pmw &^ pmaskKnown) &^ done
	m.sleepSkips += int64(bits.OnesCount64(avail & sleep))
	todo := avail &^ sleep
	if todo == 0 {
		return nil
	}
	// Claim now: the fingerprint table's index is invalidated by
	// insertions below (collapse entries are stable pointers).
	if ce != nil {
		ce.done |= todo
	} else {
		m.tab.done[idx] |= todo
	}
	return m.exploreTodo(st, todo, sleep, path, h1, h2)
}

// exploreTodo executes each claimed transition (todo) and recurses;
// h1, h2 fingerprint st.
func (m *checker) exploreTodo(st *state.State, todo, sleep uint64, path *[]Event, h1, h2 uint64) error {
	single := todo&(todo-1) == 0
	explored := uint64(0)
	for work := todo; work != 0; {
		t := bits.TrailingZeros64(work)
		work &^= 1 << uint(t)
		if m.done() {
			return nil
		}
		var cs uint64
		if m.por {
			cs = m.pt.childSleep(st, sleep|explored, t)
		}
		explored |= 1 << uint(t)
		child := st
		if !single {
			child = m.cloneState(st)
		}
		seq := m.p.Threads[t]
		pc := int(child.PCs[t])
		step := seq.Steps[pc]
		ctx := m.ctxs[t]
		ctx.Reset(child, seq)
		m.trans++
		*path = append(*path, Event{Thread: t, Step: pc})
		if m.opts.Hook != nil {
			m.opts.Hook(Event{Thread: t, Step: pc}, child)
		}
		// Fingerprint delta: the step may write its footprint's shared
		// cells and its own block (locals + PC).
		preB1, preB2 := m.hz.block(child, t)
		preS1, preS2 := m.hz.sharedW(child, t, pc)
		if f := ctx.ExecBody(step); f != nil {
			m.record(m.failTrace(*path, f, t))
			*path = (*path)[:len(*path)-1]
			if !single {
				m.release(child)
			}
			continue
		}
		child.PCs[t] = int32(pc + 1)
		postS1, postS2 := m.hz.sharedW(child, t, pc)
		postB1, postB2 := m.hz.block(child, t)
		mark := len(*path)
		err := m.dfsChild(child, t, cs, path,
			h1^preB1^postB1^preS1^postS1, h2^preB2^postB2^preS2^postS2)
		if !single {
			m.release(child)
		}
		if err != nil {
			return err
		}
		*path = (*path)[:mark-1]
	}
	return nil
}

// statusMask inspects the normalized state: counts unfinished threads
// and reports the enabled and unfinished thread sets as bitmasks. A
// failure while evaluating a blocking condition is itself a
// counterexample.
func (m *checker) statusMask(st *state.State) (unfinished int, enabled, unfin uint64, tr *Trace) {
	for t, seq := range m.p.Threads {
		pc := int(st.PCs[t])
		if pc >= len(seq.Steps) {
			continue
		}
		unfinished++
		unfin |= 1 << uint(t)
		step := seq.Steps[pc]
		// Steps without a blocking condition are always enabled — no
		// evaluation needed.
		if step.Cond == nil {
			enabled |= 1 << uint(t)
			continue
		}
		// Blocking conditions are side-effect free (enforced at
		// lowering), so no state copy is needed.
		ctx := m.ctxs[t]
		ctx.Reset(st, seq)
		ok, f := ctx.EvalCond(step)
		if f != nil {
			return 0, 0, 0, m.failTrace(nil, f, t)
		}
		if ok {
			enabled |= 1 << uint(t)
		}
	}
	return unfinished, enabled, unfin, nil
}

// blockedEvents lists, per unfinished thread, the step it is blocked at
// (used only to report deadlocks).
func (m *checker) blockedEvents(st *state.State, unfin uint64) []Event {
	var out []Event
	for rest := unfin; rest != 0; {
		t := bits.TrailingZeros64(rest)
		rest &^= 1 << uint(t)
		out = append(out, Event{Thread: t, Step: int(st.PCs[t])})
	}
	return out
}

func (m *checker) failTrace(path []Event, f *interp.Failure, thread int) *Trace {
	tr := &Trace{
		Events:  append([]Event(nil), path...),
		Failure: f,
		Phase:   PhaseThreads,
		FailThread: func() int {
			if thread < 0 {
				return -1
			}
			return thread
		}(),
		FailStep: -1,
	}
	if thread >= 0 && len(tr.Events) > 0 {
		last := tr.Events[len(tr.Events)-1]
		if last.Thread == thread {
			tr.FailStep = last.Step
		}
	}
	return tr
}

func (m *checker) failTraceEpilogue(path []Event, f *interp.Failure) *Trace {
	return &Trace{
		Events:     append([]Event(nil), path...),
		Failure:    f,
		Phase:      PhaseEpilogue,
		FailThread: -1,
		FailStep:   -1,
	}
}

// Format renders the counterexample as a readable schedule, one line
// per executed step, using the lowered program's step labels.
func (t *Trace) Format(p *ir.Program) string {
	if t == nil {
		return "ok"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample: %s\n", t.Failure)
	switch t.Phase {
	case PhasePrologue:
		b.WriteString("  (failed while running the sequential prologue)\n")
		return b.String()
	case PhaseEpilogue:
		b.WriteString("  (the correctness checks after the join failed under this schedule)\n")
	}
	for i, ev := range t.Events {
		label := ""
		if ev.Thread >= 0 && ev.Thread < len(p.Threads) {
			seq := p.Threads[ev.Thread]
			if ev.Step >= 0 && ev.Step < len(seq.Steps) {
				label = seq.Steps[ev.Step].Label
			}
		}
		fmt.Fprintf(&b, "  %3d. thread %d: %s\n", i+1, ev.Thread, label)
	}
	if len(t.Deadlocked) > 0 {
		b.WriteString("  deadlocked threads:\n")
		for _, d := range t.Deadlocked {
			label := ""
			if d.Thread < len(p.Threads) && d.Step < len(p.Threads[d.Thread].Steps) {
				label = p.Threads[d.Thread].Steps[d.Step].Label
			}
			fmt.Fprintf(&b, "    thread %d blocked at: %s\n", d.Thread, label)
		}
	}
	return b.String()
}
