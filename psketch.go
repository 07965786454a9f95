// Package psketch is a from-scratch reproduction of PSKETCH, the
// concurrent program-sketching synthesizer of "Sketching Concurrent
// Data Structures" (Solar-Lezama, Jones, Bodík; PLDI 2008).
//
// A sketch is a partial program: holes (??), regular-expression
// expression generators ({| ... |}), and reorder blocks mark the parts
// the programmer left open. Given a correctness harness — assertions
// checked over all inputs and all thread interleavings, plus an
// optional `implements` reference implementation — Synthesize completes
// the sketch by counterexample-guided inductive synthesis: a CDCL SAT
// solver proposes candidates, an explicit-state model checker verifies
// them across every interleaving, and failing executions are projected
// back onto the whole candidate space as inductive constraints.
//
// Quickstart:
//
//	res, err := psketch.Synthesize(src, "Harness", psketch.Options{})
//	if err != nil { ... }
//	if res.Resolved {
//	    fmt.Println(res.Code) // the completed implementation
//	}
package psketch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"path/filepath"
	"sync/atomic"

	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/drat"
	"psketch/internal/emit"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/obs"
	"psketch/internal/parser"
	"psketch/internal/printer"
	"psketch/internal/project"
	"psketch/internal/state"
)

// Encoding selects the reorder-block translation of §7.2.
type Encoding = desugar.Encoding

// The reorder encodings.
const (
	EncodeInsertion = desugar.EncodeInsertion
	EncodeQuadratic = desugar.EncodeQuadratic
)

// Options configure the bounded machine and the synthesis loop.
type Options struct {
	// IntWidth is the bit width of int values (default 5).
	IntWidth int
	// HoleWidth is the default bit width of ?? holes (default 3).
	HoleWidth int
	// LoopBound unrolls while loops (default 4); candidates must
	// terminate within it (liveness as bounded safety, §6).
	LoopBound int
	// MaxRepeat bounds repeat(??) replication (default 8).
	MaxRepeat int
	// Encoding picks the reorder encoding (default insertion).
	Encoding Encoding
	// MaxIterations bounds the CEGIS loop (default 256).
	MaxIterations int
	// MaxSolutions bounds Enumerate: verified candidates are blocked
	// and the space re-solved until UNSAT or this many solutions
	// (default 8).
	MaxSolutions int
	// MCMaxStates bounds the model checker (default 4,000,000).
	MCMaxStates int
	// TracesPerIteration asks the verifier for several counterexample
	// traces per CEGIS iteration (default 1, the paper's behaviour).
	// Larger values speed up deadlock-heavy spaces considerably.
	TracesPerIteration int
	// Parallelism sizes the SAT portfolio, whose workers share learnt
	// clauses, and the model checker's worker pool (default
	// runtime.GOMAXPROCS(0)); 1 selects the fully deterministic
	// sequential engine. See ARCHITECTURE.md.
	Parallelism int
	// Proof enables DRAT proof logging in the SAT backends and replays
	// every committed UNSAT verdict through the internal/drat backward
	// checker, so a "cannot be resolved" answer carries a verified
	// certificate. Adds solver and memory overhead; see EXPERIMENTS.md.
	Proof bool
	// Cancel, when set and stored true by another goroutine, aborts
	// Synthesize and ModelCheck cooperatively (solves and searches
	// unwind, workers are joined, and an error is returned).
	Cancel *atomic.Bool
	// Verbose receives progress lines when non-nil.
	Verbose func(format string, args ...any)
	// Trace, when set, receives hierarchical spans from every layer of
	// the run (CEGIS iterations, SAT solves, model-checker searches,
	// projection encodings). Build one with obs.NewTracer over a journal
	// sink, a flight-recorder ring, or both; nil disables tracing at
	// zero cost. See internal/obs and cmd/psktrace.
	Trace *obs.Tracer
	// TraceParent is the span new root spans parent to (0 = top level).
	TraceParent obs.SpanID
	// Metrics, when set, is the registry the run's counters live in —
	// expose it live via obs.ServeDebug, or snapshot it into a journal
	// trailer. Stats is computed from the same counters either way.
	Metrics *obs.Metrics
	// HeapSampleEvery samples the heap high-water mark every N CEGIS
	// iterations. runtime.ReadMemStats stops the world, so the default
	// 0 samples only once per Synthesize; pskbench sets 1, so that its
	// MiB column also sees peaks inside the loop.
	HeapSampleEvery int
	// Warm, when set, is a cross-request warm-state store (build one
	// with NewWarmStore): Synthesize checks the sketch's encoding
	// context — hash-consed builder, hole inputs, projection cache —
	// out of it before running and returns the grown context after, so
	// repeated synthesis of the same sketch (psketchd's workload)
	// starts with earlier runs' projection prefixes memoized. Keyed by
	// SketchHash; concurrent runs of one sketch are safe (the checkout
	// is exclusive — losers build cold). Ignored for sequential
	// sketches.
	Warm *WarmStore
}

func (o Options) desugarOpts() desugar.Options {
	return desugar.Options{
		IntWidth:  o.IntWidth,
		HoleWidth: o.HoleWidth,
		LoopBound: o.LoopBound,
		MaxRepeat: o.MaxRepeat,
		Encoding:  o.Encoding,
	}.Defaults()
}

// Stats reports the work done by a synthesis run (the Figure 9
// columns).
type Stats = core.Stats

// ErrCanceled is returned by Synthesize when Options.Cancel fired
// before the loop converged.
var ErrCanceled = core.ErrCanceled

// WarmStore is the cross-request warm-state cache behind Options.Warm:
// idle encoding contexts keyed by SketchHash, bounded by estimated
// retained bytes, evicted least-recently-used first. Safe for
// concurrent use; hit/miss/eviction counters register as warm.* in the
// metrics registry passed to NewWarmStore.
type WarmStore = project.Store

// WarmStats is a point-in-time view of a WarmStore's effectiveness.
type WarmStats = project.StoreStats

// NewWarmStore builds a warm-state store bounded to maxBytes of
// estimated retained memory (<= 0 for unbounded), registering its
// counters in m (nil for none).
func NewWarmStore(maxBytes int64, m *obs.Metrics) *WarmStore {
	return project.NewStore(maxBytes, m)
}

// SketchHash returns the stable warm-store key for (src, target, opts):
// it folds in the sketch source, the synthesis target, and every
// desugar-level option that shapes the candidate-space encoding.
// Engine-level options (parallelism, budgets, proof, tracing) do not
// contribute — they never change the encoding, so runs differing only
// in them share warm state soundly.
func SketchHash(src, target string, opts Options) string {
	d := opts.desugarOpts()
	h := sha256.New()
	fmt.Fprintf(h, "v1|%d|%d|%d|%d|%d|%s|", d.IntWidth, d.HoleWidth, d.LoopBound, d.MaxRepeat, d.Encoding, target)
	io.WriteString(h, src)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Sketch) coreOpts() core.Options {
	return core.Options{
		Warm:               s.opts.Warm,
		WarmKey:            s.warmKey,
		MaxIterations:      s.opts.MaxIterations,
		MCMaxStates:        s.opts.MCMaxStates,
		TracesPerIteration: s.opts.TracesPerIteration,
		Parallelism:        s.opts.Parallelism,
		Proof:              s.opts.Proof,
		Cancel:             s.opts.Cancel,
		Verbose:            s.opts.Verbose,
		Trace:              s.opts.Trace,
		TraceParent:        s.opts.TraceParent,
		Metrics:            s.opts.Metrics,
		HeapSampleEvery:    s.opts.HeapSampleEvery,
	}
}

// Candidate is a concrete assignment to every hole of a sketch.
type Candidate = desugar.Candidate

// Sketch is a compiled synthesis problem.
type Sketch struct {
	sk      *desugar.Sketch
	opts    Options
	warmKey string
}

// Compile parses, type-checks and desugars the sketch for the given
// harness (or `implements` function).
func Compile(src, target string, opts Options) (*Sketch, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	sk, err := desugar.Desugar(prog, target, opts.desugarOpts())
	if err != nil {
		return nil, err
	}
	out := &Sketch{sk: sk, opts: opts}
	if opts.Warm != nil {
		out.warmKey = SketchHash(src, target, opts)
	}
	return out, nil
}

// CandidateCount returns |C|, the number of syntactically distinct
// candidates the sketch denotes (Table 1 counting rules).
func (s *Sketch) CandidateCount() *big.Int { return new(big.Int).Set(s.sk.Count) }

// Holes returns the number of synthesis unknowns after desugaring.
func (s *Sketch) Holes() int { return len(s.sk.Holes) }

// Result is a synthesis outcome.
type Result struct {
	// Resolved reports whether a correct completion exists. A false
	// value is a definitive "NO" for the bounded machine: every
	// candidate was refuted (as for the lazyset ar(ar|ar) benchmark).
	Resolved bool
	// Candidate is the found hole assignment.
	Candidate Candidate
	// Code is the resolved sketch, pretty-printed with all choices
	// substituted and the chosen statement order restored.
	Code string
	// Stats reports iterations, per-phase times and memory.
	Stats Stats
	// Certificate, under Options.Proof, is the verified DRAT
	// certificate backing the run's final UNSAT verdict (candidate-
	// space exhaustion, or the sequential verifier's final check). Nil
	// when proof logging is off or no SAT verdict closed the run.
	Certificate *drat.Certificate
}

// Synthesize runs CEGIS on a compiled sketch.
func (s *Sketch) Synthesize() (*Result, error) {
	syn, err := core.New(s.sk, s.coreOpts())
	if err != nil {
		return nil, err
	}
	// Return the encoding context to the warm store whatever happens —
	// after a cancellation or error the builder and projection cache are
	// still consistent (workers are joined before Synthesize returns),
	// and the next run of this sketch should start warm regardless.
	defer syn.Release()
	r, err := syn.Synthesize()
	if err != nil {
		return nil, err
	}
	return s.result(&Result{Resolved: r.Resolved, Candidate: r.Candidate, Stats: r.Stats, Certificate: r.Certificate})
}

// result completes an engine outcome: a resolved one gets its
// pretty-printed program.
func (s *Sketch) result(out *Result) (*Result, error) {
	if out.Resolved {
		code, err := printer.Program(s.sk, out.Candidate)
		if err != nil {
			return nil, err
		}
		out.Code = code
	}
	return out, nil
}

// ResolveFunc pretty-prints one function under a candidate.
func (s *Sketch) ResolveFunc(cand Candidate, fn string) (string, error) {
	return printer.Resolve(s.sk, cand, fn)
}

// Synthesize compiles and synthesizes in one call.
func Synthesize(src, target string, opts Options) (*Result, error) {
	sk, err := Compile(src, target, opts)
	if err != nil {
		return nil, err
	}
	return sk.Synthesize()
}

// ModelCheck verifies one concrete candidate of the sketch over all
// thread interleavings, returning nil when it is correct and a
// counterexample description otherwise. A candidate shorter than the
// sketch's hole list is zero-padded; a longer one, or a value outside
// its hole's range, is an error.
func (s *Sketch) ModelCheck(cand Candidate) (ok bool, counterexample string, err error) {
	if err := s.checkCandidate(cand); err != nil {
		return false, "", err
	}
	prog, err := ir.Lower(s.sk)
	if err != nil {
		return false, "", err
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		return false, "", err
	}
	res, err := mc.Check(layout, cand, mc.Options{
		MaxStates: s.opts.MCMaxStates, Parallelism: s.opts.Parallelism,
		Cancel: s.opts.Cancel,
		Tracer: s.opts.Trace, ParentSpan: s.opts.TraceParent,
	})
	if err != nil {
		return false, "", err
	}
	if res.OK {
		return true, "", nil
	}
	return false, res.Trace.Format(prog), nil
}

// checkCandidate rejects a candidate with more values than the sketch
// has holes, or with a value outside its hole's range: [0, Choices) for
// a generator, [0, 2^Bits) for any other hole. The evaluators would
// otherwise clamp or truncate such a value and check a different
// candidate than the one asked about.
func (s *Sketch) checkCandidate(cand Candidate) error {
	if len(cand) > len(s.sk.Holes) {
		return fmt.Errorf("candidate has %d values but the sketch's hole count is %d", len(cand), len(s.sk.Holes))
	}
	for i, v := range cand {
		h := s.sk.Holes[i]
		n := uint64(h.Choices)
		if h.Kind != desugar.HoleChoice {
			n = 1 << uint(h.Bits) // 0, no bound, from 64 bits up
		}
		if v < 0 || (n != 0 && uint64(v) >= n) {
			return fmt.Errorf("candidate value %d for hole %d %s is outside [0, %d)", v, i, h.Label, n)
		}
	}
	return nil
}

// Count parses the program and returns Table 1's |C| for the target.
func Count(src, target string, opts Options) (*big.Int, error) {
	sk, err := Compile(src, target, opts)
	if err != nil {
		return nil, err
	}
	return sk.CandidateCount(), nil
}

// String renders a candidate compactly for logs.
func CandidateString(c Candidate) string { return fmt.Sprint([]int64(c)) }

// DetectTarget finds the synthesis entry point of a source file: the
// unique harness function, or the unique function with an implements
// clause.
func DetectTarget(src string) (string, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	var targets []string
	for _, f := range prog.Funcs {
		if f.Harness || f.Implements != "" {
			targets = append(targets, f.Name)
		}
	}
	switch len(targets) {
	case 0:
		return "", fmt.Errorf("psketch: no harness or implements function found")
	case 1:
		return targets[0], nil
	}
	return "", fmt.Errorf("psketch: multiple synthesis targets (%v); pick one with -target", targets)
}

// Enumerate returns up to Options.MaxSolutions (default 8) distinct
// verified completions of the sketch — the §8.3.1 autotuning hook:
// synthesize many candidates, then pick the best by measurement (Emit,
// then RankEmitted). Each verified candidate is blocked and the space
// re-solved until UNSAT or the bound: the returned candidate set is
// invariant under parallelism, only its order may differ.
func (s *Sketch) Enumerate() ([]*Result, error) {
	max := s.opts.MaxSolutions
	if max <= 0 {
		max = 8
	}
	var out []*Result
	syn, err := core.New(s.sk, s.coreOpts())
	if err != nil {
		return nil, err
	}
	defer syn.Release()
	rs, err := syn.Enumerate(max)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		res, err := s.result(&Result{Resolved: true, Candidate: r.Candidate, Stats: r.Stats})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// RankOptions configure the throughput-ranking pass over emitted
// candidates.
type RankOptions = emit.RankOptions

// Measurement is one emitted candidate's measured throughput.
type Measurement = emit.Measurement

// EmitManifest is the saved verdict Emit leaves at the emit root.
type EmitManifest = emit.Manifest

// Emit lowers completions — Enumerate's results — to compilable Go
// packages: real sync/atomic operations, real goroutines, the
// structure's ops as exported methods, plus a generated load harness
// and race-detector stress test (see internal/emit for the lowering
// map and its soundness caveat). Completions that resolve to identical
// code are emitted once (distinct hole assignments can fold to the
// same program). Each kept one becomes dir/cand00, dir/cand01, ... in
// order, and dir/manifest.json records them as the verdict RankEmitted
// ranks; Emit returns that manifest.
func (s *Sketch) Emit(dir string, rs []*Result) (*EmitManifest, error) {
	man := &EmitManifest{}
	if s.sk.Harness != nil {
		man.Sketch = s.sk.Harness.Name
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.Code] {
			continue
		}
		seen[r.Code] = true
		name := fmt.Sprintf("cand%02d", len(man.Candidates))
		p, err := emit.Emit(s.sk, r.Candidate, emit.Options{
			Name:    name,
			Tracer:  s.opts.Trace,
			Parent:  s.opts.TraceParent,
			Metrics: s.opts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		if err := p.WriteDir(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
		man.Candidates = append(man.Candidates, emit.ManifestEntry{
			Name: name, Candidate: r.Candidate, Code: r.Code, Ops: p.Ops,
		})
	}
	if err := emit.WriteManifest(dir, man); err != nil {
		return nil, err
	}
	return man, nil
}

// RankEmitted ranks the candidates an Emit run saved under root by
// measured throughput: it builds every package, drives its load
// harness, returns the measurements fastest first (candidates that
// fail to build or run sort last), and records them in the manifest.
// No synthesis runs — this is cmd/pskemit.
func RankEmitted(root string, ropts RankOptions) (*EmitManifest, []Measurement, error) {
	man, err := emit.ReadManifest(root)
	if err != nil {
		return nil, nil, err
	}
	ms, err := emit.Rank(man.CandidateDirs(root), ropts)
	if err != nil {
		return man, nil, err
	}
	man.Ranked = ms
	_ = emit.WriteManifest(root, man)
	return man, ms, nil
}
