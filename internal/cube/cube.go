// Package cube implements cube-and-conquer distributed CEGIS: the
// hole/generator space is split on a few high-fanout decision bits
// into 2^k disjoint cubes, an independent in-process CEGIS engine races
// each cube, the first verified YES cancels everyone else, and per-cube
// UNSATs merge into a whole-space NO backed by one DRAT certificate.
//
// # Soundness
//
// Three facts carry the whole scheme (argued in ARCHITECTURE.md,
// "Distributed CEGIS"):
//
//  1. Cube membership is enforced by Solve-time ASSUMPTIONS
//     (core.Options.Cube), never clauses, so every clause any cube's
//     solver learns is implied by the shared problem clauses alone and
//     may be broadcast to every other cube (sat.Bus).
//  2. Projected counterexamples are facts about the ENTIRE candidate
//     space (internal/project), so one cube's traces prune all others
//     (project.Bus) and enter the merged proof as legitimate premises.
//  3. The setup encoding is deterministic: all cubes allocate an
//     identical SAT-variable prefix (core.SetupVars, cross-checked at
//     engine start), which keys both the bus filter and the per-cube
//     DRAT namespaces of the merged certificate.
//
// The merged certificate closes with a top-level resolution over the
// cube literals: each exhausted cube contributes its refutation clause
// ¬cube_i (RUP — the cube's UNSAT-under-assumptions verdict is exactly
// "unit propagation from the cube literals conflicts"), and
// drat.CubeTree's prefix clauses resolve them down to the empty
// clause, replayable by the ordinary backward checker.
package cube

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/drat"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/obs"
	"psketch/internal/project"
	"psketch/internal/sat"
)

// Options configure a cube-and-conquer run.
type Options struct {
	// Cubes is the requested number of cubes, rounded DOWN to a power
	// of two (the splitter picks log2 bits). Values below 2 — or a
	// sketch without enough hole bits — fall back to one plain
	// whole-space run with the template options.
	Cubes int
	// Workers bounds how many cube engines run concurrently (0 = one
	// per cube). Fewer workers than cubes means finished workers STEAL
	// the next unstarted cube from the queue.
	Workers int
	// Proof merges every cube's DRAT log into one whole-space
	// certificate for NO verdicts (and replays it before the verdict is
	// returned).
	Proof bool
	// Core is the per-cube template. Parallelism is PER CUBE (each cube
	// runs its own portfolio/MC pool of that size); Cancel/Trace/
	// TraceParent/Metrics/Verbose apply to the coordinator, which hands
	// each cube a private registry and folds it back. Cube, CubeID,
	// buses, Proof and ProofSink in the template are ignored.
	Core core.Options
}

// BitRef names one hole bit chosen as a cube variable.
type BitRef struct {
	Hole int
	Bit  int
}

// PerCube reports one cube's outcome.
type PerCube struct {
	ID        int
	Cube      []core.CubeLit
	Resolved  bool
	Exhausted bool
	Canceled  bool
	// Stolen marks a cube run by a worker that had already finished
	// another cube (queue stealing).
	Stolen bool
	Stats  core.Stats
	// RemoteTraces counts projections this cube imported from other
	// cubes; PrunedByRemote counts iterations where an imported
	// projection refuted the cube's held candidate before it was ever
	// verified.
	RemoteTraces   int64
	PrunedByRemote int64
}

// Result is the merged outcome of a cube-and-conquer run.
type Result struct {
	Resolved  bool
	Candidate desugar.Candidate
	// Winner is the cube that resolved (-1 for a NO verdict).
	Winner int
	// Stats aggregates all cubes: phase times and counts are summed
	// (total work, not wall-clock — Total alone is the coordinator's
	// wall time), sizes are maxima.
	Stats   core.Stats
	Bits    []BitRef
	PerCube []PerCube
	// Stolen counts cubes run by workers that had finished another.
	Stolen int64
	// LastTrace is a counterexample from some exhausted cube (NO
	// verdicts only).
	LastTrace *mc.Trace
	// Certificate, under Options.Proof, is the verified merged DRAT
	// certificate of a NO verdict.
	Certificate *drat.Certificate
}

// Split picks up to log2(want) cube bits, preferring high-fanout holes
// (a generator choosing among many alternatives splits the space more
// evenly than a narrow constant) and round-robining bit positions
// across the top holes LSB-first, so cubes differ in coarse structural
// decisions rather than one hole's fine bits. Returns fewer bits (or
// none) when the sketch's holes cannot support the requested fanout.
func Split(holes []desugar.HoleMeta, want int) []BitRef {
	k := 0
	for 1<<uint(k+1) <= want {
		k++
	}
	if k == 0 {
		return nil
	}
	type hf struct {
		id     int
		bits   int // bit positions usable as cube variables
		fanout int
	}
	var hs []hf
	for _, m := range holes {
		f := hf{id: m.ID, bits: m.Bits}
		switch {
		case m.Kind == desugar.HoleChoice:
			f.fanout = m.Choices
		case m.Bits >= 20:
			f.fanout = 1 << 20
		default:
			f.fanout = 1 << uint(m.Bits)
		}
		if f.fanout >= 2 && f.bits >= 1 {
			hs = append(hs, f)
		}
	}
	// Insertion-sort by fanout desc, ID asc: deterministic and tiny.
	for i := 1; i < len(hs); i++ {
		for j := i; j > 0 && (hs[j].fanout > hs[j-1].fanout ||
			(hs[j].fanout == hs[j-1].fanout && hs[j].id < hs[j-1].id)); j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
	var out []BitRef
	for level := 0; len(out) < k; level++ {
		advanced := false
		for _, h := range hs {
			if len(out) == k {
				break
			}
			if level < h.bits {
				out = append(out, BitRef{Hole: h.id, Bit: level})
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	return out
}

// Assign expands cube index i over the chosen bits: bit j of i gives
// the polarity of bits[j].
func Assign(bits []BitRef, i int) []core.CubeLit {
	out := make([]core.CubeLit, len(bits))
	for j, b := range bits {
		out[j] = core.CubeLit{Hole: b.Hole, Bit: b.Bit, Val: i>>uint(j)&1 == 1}
	}
	return out
}

// run is the shared coordinator state of one cube-and-conquer
// execution, driven by its in-process workers.
type run struct {
	sk       *desugar.Sketch
	opts     Options
	bits     []BitRef
	n        int
	nCommon  int
	cubeVars []int // positive DIMACS indices of the cube bits
	// prog is the sketch lowered exactly once (by the probe engine in
	// newRun) and shared read-only by every in-process cube worker.
	// ir.Lower renumbers alloc sites on AST nodes the sketch shares, so
	// letting each worker lower independently would race with another
	// worker's interpreter reading those nodes mid-renumber.
	prog *ir.Program

	rec  *drat.Recorder
	bus  *sat.Bus
	tbus *project.Bus
	tr   *obs.Tracer
	span obs.Span
	met  *obs.Metrics

	queue chan int

	mu             sync.Mutex
	winner         int
	winCand        desugar.Candidate
	firstErr       error
	lastTrace      *mc.Trace
	per            []PerCube
	cancels        []*atomic.Bool
	done           bool
	exhausted      int
	stolen         int64
	parentCanceled bool
}

func newRun(sk *desugar.Sketch, opts Options) (*run, error) {
	bits := Split(sk.Holes, opts.Cubes)
	n := 1 << uint(len(bits))
	r := &run{
		sk:      sk,
		opts:    opts,
		bits:    bits,
		n:       n,
		winner:  -1,
		tr:      opts.Core.Trace,
		met:     opts.Core.Metrics,
		per:     make([]PerCube, n),
		cancels: make([]*atomic.Bool, n),
		queue:   make(chan int, n),
		tbus:    project.NewBus(),
	}
	if r.met == nil {
		r.met = obs.NewMetrics()
	}
	for i := 0; i < n; i++ {
		r.per[i] = PerCube{ID: i, Cube: Assign(bits, i)}
		r.queue <- i
	}
	close(r.queue)

	// Probe the setup encoding once: its variable count is the
	// cross-cube shared prefix (bus filter + DRAT namespace boundary)
	// and its hole-variable map yields the cube literals in DIMACS form
	// for the merged certificate's top-level resolution.
	probeOpts := core.Options{
		MaxIterations: opts.Core.MaxIterations,
		MCMaxStates:   opts.Core.MCMaxStates,
		Parallelism:   1,
	}
	probe, err := core.New(sk, probeOpts)
	if err != nil {
		return nil, err
	}
	r.nCommon = probe.SetupVars()
	r.prog = probe.Prog
	r.cubeVars = make([]int, len(bits))
	for j, b := range bits {
		r.cubeVars[j] = probe.HoleDimacs(b.Hole, b.Bit)
	}
	if opts.Proof {
		r.rec = drat.NewRecorder()
	}
	if !opts.Core.NoShareClauses {
		r.bus = sat.NewBus(r.nCommon)
	}
	r.span = r.tr.Start("cube.synthesize", opts.Core.TraceParent)
	return r, nil
}

// cancelAll stops every running cube (idempotent).
func (r *run) cancelAll() {
	r.mu.Lock()
	r.done = true
	for _, c := range r.cancels {
		if c != nil {
			c.Store(true)
		}
	}
	r.mu.Unlock()
}

// claim registers a fresh cancel token for cube id, unless the run is
// already decided.
func (r *run) claim(id int) (*atomic.Bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return nil, false
	}
	tok := &atomic.Bool{}
	r.cancels[id] = tok
	return tok, true
}

// decided reports whether a verdict or error already ended the race.
func (r *run) decided() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// cubeOpts builds the core options one cube engine runs with. met is
// the cube's private registry; sink is non-nil when proof logging is
// on (each cube logs through a Namespace of the master recorder).
func (r *run) cubeOpts(id int, tok *atomic.Bool, met *obs.Metrics, sink drat.Sink, parent obs.SpanID) core.Options {
	copts := r.opts.Core
	copts.Prog = r.prog
	copts.Cancel = tok
	copts.Cube = Assign(r.bits, id)
	copts.CubeID = id
	copts.Metrics = met
	copts.TraceBus = r.tbus
	copts.ClauseBus = r.bus
	copts.Proof = false
	copts.ProofSink = sink
	copts.Trace = r.tr
	copts.TraceParent = parent
	return copts
}

// finishResolved records a verified YES for cube id and cancels the
// race. The first resolver wins; late resolvers (already-running cubes
// that beat the cancellation signal) are recorded but do not replace
// the winner.
func (r *run) finishResolved(id int, cand desugar.Candidate, st core.Stats, stolen bool) {
	r.mu.Lock()
	pc := &r.per[id]
	pc.Resolved, pc.Stolen, pc.Stats = true, stolen, st
	if stolen {
		r.stolen++
	}
	if r.winner < 0 {
		r.winner = id
		r.winCand = append(desugar.Candidate(nil), cand...)
	}
	r.mu.Unlock()
	r.cancelAll()
}

// finishExhausted records a definitive per-cube NO: the cube's
// refutation clause joins the merged proof (RUP — the engine's UNSAT
// verdict under exactly these assumption literals), and when the last
// cube exhausts, the caller's merge closes the certificate.
func (r *run) finishExhausted(id int, st core.Stats, last *mc.Trace, stolen bool, remTraces, pruned int64) {
	if r.rec != nil {
		r.rec.AddLemma(drat.CubeClause(r.cubeVars, id))
	}
	r.mu.Lock()
	pc := &r.per[id]
	pc.Exhausted, pc.Stolen, pc.Stats = true, stolen, st
	pc.RemoteTraces, pc.PrunedByRemote = remTraces, pruned
	if stolen {
		r.stolen++
	}
	if last != nil {
		r.lastTrace = last
	}
	r.exhausted++
	r.mu.Unlock()
}

// fail records a cube error and cancels the race.
func (r *run) fail(id int, err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf("cube %d: %w", id, err)
	}
	r.mu.Unlock()
	r.cancelAll()
}

// finishCanceled records a cube torn down by the race ending.
func (r *run) finishCanceled(id int, stolen bool) {
	r.mu.Lock()
	pc := &r.per[id]
	pc.Canceled, pc.Stolen = true, stolen
	r.mu.Unlock()
}

// foldMetrics merges a finished cube's private registry into the
// coordinator's: sums add, high-water marks max. This keeps a journal
// trailer written from the parent registry meaningful for the whole
// cube run.
func (r *run) foldMetrics(met *obs.Metrics) {
	for name, v := range met.Snapshot() {
		if obs.HighWaterCounters[name] {
			r.met.Counter(name).Max(v)
		} else {
			r.met.Counter(name).Add(v)
		}
	}
}

// runCube executes one cube with a local engine. Returns after
// recording the outcome.
func (r *run) runCube(id int, tok *atomic.Bool, stolen bool) {
	sp := r.tr.Start("cube.run", r.span.ID())
	met := obs.NewMetrics()
	var sink drat.Sink
	if r.rec != nil {
		sink = r.rec.Namespace(r.nCommon)
	}
	copts := r.cubeOpts(id, tok, met, sink, sp.ID())
	endSpan := func(status string) {
		if sp.Active() {
			sp.End(obs.Str("status", status),
				obs.Int("cube.id", int64(id)),
				obs.Int("cube.stolen", b2i(stolen)))
		}
	}
	syn, err := core.New(r.sk, copts)
	if err == nil && syn.SetupVars() != r.nCommon {
		// Soundness guard: the bus filter and proof namespaces assume an
		// identical setup prefix; a mismatch means the encoding is not
		// deterministic and the whole split is invalid.
		err = fmt.Errorf("cube: setup prefix mismatch (%d vars, probe saw %d)", syn.SetupVars(), r.nCommon)
	}
	if err != nil {
		endSpan("error")
		r.fail(id, err)
		return
	}
	res, err := syn.Synthesize()
	r.foldMetrics(met)
	switch {
	case err == nil && res.Resolved:
		endSpan("resolved")
		r.finishResolved(id, res.Candidate, res.Stats, stolen)
	case err == nil:
		endSpan("exhausted")
		r.finishExhausted(id, res.Stats, res.LastTrace, stolen,
			met.Counter("cube.remote_traces").Get(), met.Counter("cube.pruned_by_remote").Get())
	case err == core.ErrCanceled || r.decided():
		endSpan("canceled")
		r.finishCanceled(id, stolen)
	default:
		endSpan("error")
		r.fail(id, err)
	}
}

// localWorker drains the cube queue until the race is decided.
func (r *run) localWorker() {
	first := true
	for id := range r.queue {
		tok, ok := r.claim(id)
		if !ok {
			return
		}
		r.runCube(id, tok, !first)
		first = false
		if r.decided() {
			return
		}
	}
}

// watchCancel propagates the caller's cancellation token into the
// race. Returns a stop function.
func (r *run) watchCancel() func() {
	ext := r.opts.Core.Cancel
	if ext == nil {
		return func() {}
	}
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if ext.Load() {
					r.mu.Lock()
					r.parentCanceled = true
					r.mu.Unlock()
					r.cancelAll()
					return
				}
			}
		}
	}()
	return func() { close(stop) }
}

// merge builds the final Result (or error) once every claimed cube has
// recorded its outcome and all workers are joined.
func (r *run) merge(start time.Time) (*Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := &Result{
		Winner:    r.winner,
		Bits:      r.bits,
		PerCube:   r.per,
		Stolen:    r.stolen,
		LastTrace: r.lastTrace,
	}
	agg := aggregate(r.per)
	agg.Total = time.Since(start)
	workers := r.opts.Workers
	if workers <= 0 || workers > r.n {
		workers = r.n
	}
	par := r.opts.Core.Parallelism
	if par < 1 {
		par = 1
	}
	agg.Parallelism = workers * par
	r.met.Counter("cube.stolen").Add(r.stolen)
	endSpan := func(status string) {
		if r.span.Active() {
			r.span.End(obs.Str("status", status),
				obs.Int("cubes", int64(r.n)),
				obs.Int("winner", int64(r.winner)),
				obs.Int("stolen", r.stolen))
		}
	}
	switch {
	case r.winner >= 0:
		res.Resolved = true
		res.Candidate = r.winCand
		res.Stats = agg
		endSpan("resolved")
		return res, nil
	case r.firstErr != nil:
		endSpan("error")
		return nil, r.firstErr
	case r.parentCanceled:
		endSpan("canceled")
		return nil, core.ErrCanceled
	case r.exhausted != r.n:
		endSpan("error")
		return nil, fmt.Errorf("cube: internal error: race ended with %d/%d cubes exhausted and no verdict", r.exhausted, r.n)
	}
	// Whole-space NO: close the merged certificate with the top-level
	// resolution over the cube literals and replay it.
	if r.rec != nil {
		for _, c := range drat.CubeTree(r.cubeVars) {
			r.rec.AddLemma(c)
		}
		t0 := time.Now()
		cert := r.rec.Certificate(nil)
		cs, err := cert.Verify()
		d := time.Since(t0)
		agg.ProofLemmas = cs.Lemmas
		agg.ProofChecked = cs.Checked
		agg.ProofCore = cs.Core
		agg.ProofCheck = d
		r.met.Counter("proof.lemmas").Add(int64(cs.Lemmas))
		r.met.Counter("proof.checked").Add(int64(cs.Checked))
		r.met.Counter("proof.core").Add(int64(cs.Core))
		r.met.Counter("proof.check_ns").Add(int64(d))
		if err != nil {
			endSpan("error")
			return nil, fmt.Errorf("cube: DRAT replay of merged NO verdict failed: %w", err)
		}
		res.Certificate = cert
	}
	res.Stats = agg
	endSpan("exhausted")
	return res, nil
}

// aggregate sums the cubes' per-run stats (sizes max).
func aggregate(per []PerCube) core.Stats {
	var a core.Stats
	for i := range per {
		st := &per[i].Stats
		a.Iterations += st.Iterations
		a.SSolve += st.SSolve
		a.SModel += st.SModel
		a.VSolve += st.VSolve
		a.VModel += st.VModel
		a.SpecSolves += st.SpecSolves
		a.SpecHits += st.SpecHits
		a.SpecSolve += st.SpecSolve
		a.MCStates += st.MCStates
		a.MCTrans += st.MCTrans
		a.MCOrbitHits += st.MCOrbitHits
		a.SATConfl += st.SATConfl
		a.SATExported += st.SATExported
		a.SATImported += st.SATImported
		a.SATBusExported += st.SATBusExported
		a.SATBusImported += st.SATBusImported
		a.ProjHits += st.ProjHits
		a.ProjMisses += st.ProjMisses
		a.ProjSaved += st.ProjSaved
		if st.SATVars > a.SATVars {
			a.SATVars = st.SATVars
		}
		if st.SATClauses > a.SATClauses {
			a.SATClauses = st.SATClauses
		}
		if st.MCSymClasses > a.MCSymClasses {
			a.MCSymClasses = st.MCSymClasses
		}
		if st.MCVisitedBytes > a.MCVisitedBytes {
			a.MCVisitedBytes = st.MCVisitedBytes
		}
		if st.MaxHeap > a.MaxHeap {
			a.MaxHeap = st.MaxHeap
		}
	}
	return a
}

// plainRun executes the whole space with one engine (no cubes) and
// wraps the outcome, preserving the single-engine behaviour
// bit-for-bit — this is the Cubes<2 / unsplittable-sketch path.
func plainRun(sk *desugar.Sketch, opts Options) (*Result, error) {
	copts := opts.Core
	copts.Proof = opts.Proof
	syn, err := core.New(sk, copts)
	if err != nil {
		return nil, err
	}
	res, err := syn.Synthesize()
	if err != nil {
		return nil, err
	}
	out := &Result{
		Resolved:    res.Resolved,
		Candidate:   res.Candidate,
		Winner:      -1,
		Stats:       res.Stats,
		LastTrace:   res.LastTrace,
		Certificate: res.Certificate,
	}
	if res.Resolved {
		out.Winner = 0
	}
	return out, nil
}

// Synthesize runs cube-and-conquer CEGIS in-process: the space is
// split into cubes, Workers goroutine engines race them (stealing
// unstarted cubes as they finish), and verdicts merge per the package
// comment.
func Synthesize(sk *desugar.Sketch, opts Options) (*Result, error) {
	if opts.Cubes < 2 {
		return plainRun(sk, opts)
	}
	start := time.Now()
	r, err := newRun(sk, opts)
	if err != nil {
		return nil, err
	}
	if len(r.bits) == 0 {
		return plainRun(sk, opts)
	}
	workers := opts.Workers
	if workers <= 0 || workers > r.n {
		workers = r.n
	}
	stop := r.watchCancel()
	defer stop()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.localWorker()
		}()
	}
	wg.Wait()
	return r.merge(start)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
