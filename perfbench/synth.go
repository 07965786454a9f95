package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"psketch"
)

// synthShort are the synth rows that take under a second at -j 1 on a
// 2-vCPU host; the other nine take 1.6 s or more. A pass runs each of
// them synthShortReps times, at seeded points of the pass. With one
// sample a row, the median of the 20 rows was the slower two of the
// seven rows between 0.6 and 0.9 s, so one slow moment of a shared host
// in any of seven jobs set it. With three, the median of a pass's jobs
// is the middle of those rows' 21 samples. A traced run's passes run
// every row once, so that per-layer means weigh every row alike and its
// two regions, a pass each, stay well inside a run's time limit.
var synthShort = map[rowKey]bool{
	{"queueDE1", "ed(ee|dd)"}:    true,
	{"queueDE1", "ed(ed|ed)"}:    true,
	{"queueE2", "ed(ed|ed)"}:     true,
	{"queueE2", "(e|e|e)ddd"}:    true,
	{"dinphilo", "N=3,T=5"}:      true,
	{"fineset1", "ar(ar|ar)"}:    true,
	{"fineset1", "ar(a|r|a|r)"}:  true,
	{"fineset1", "ar(ar|ar|ar)"}: true,
	{"fineset2", "ar(ar|ar)"}:    true,
	{"fineset2", "ar(a|r|a|r)"}:  true,
	{"lazyset", "ar(aa|rr)"}:     true,
}

const synthShortReps = 3

// synthWorkload is sequential synthesis of the 20 synth rows: one
// closed-loop caller compiles and synthesizes each row in turn. A pass
// runs every row once, and each short row synthShortReps times, in an
// order the seed permutes afresh every pass.
type synthWorkload struct {
	jobs []*row // one pass, before shuffling
	rng  *rand.Rand
}

func newSynth(a *answers, seed int64, traced bool) (*synthWorkload, error) {
	rows, err := loadRows(a, synthRows())
	if err != nil {
		return nil, err
	}
	short := 0
	for _, r := range rows {
		if synthShort[r.key] {
			short++
		}
	}
	if short != len(synthShort) {
		return nil, fmt.Errorf("only %d of the %d short rows are synth rows", short, len(synthShort))
	}
	reps := synthShortReps
	if traced {
		reps = 1
	}
	return newSynthPass(rows, seed, reps), nil
}

// newSynthPass builds a pass that runs each short row reps times and
// every other row once.
func newSynthPass(rows []*row, seed int64, reps int) *synthWorkload {
	w := &synthWorkload{rng: rand.New(rand.NewSource(seed))}
	for _, r := range rows {
		n := 1
		if synthShort[r.key] {
			n = reps
		}
		for i := 0; i < n; i++ {
			w.jobs = append(w.jobs, r)
		}
	}
	return w
}

func (w *synthWorkload) jobLayer() string { return layerCore }

func (w *synthWorkload) close() {}

func (w *synthWorkload) run(budget time.Duration, rec *recorder) (*region, error) {
	r := &region{}
	r.wall = passes(budget, func() {
		for _, i := range w.rng.Perm(len(w.jobs)) {
			// Start every job from a collected heap, so that neither
			// its GC schedule nor its memory peak depends on the
			// garbage the job before it left.
			runtime.GC()
			r.jobs = append(r.jobs, synthJob(w.jobs[i], rec))
		}
	})
	return r, nil
}

// synthJob times one row from Compile to verdict. Under tracing the
// engine's spans nest under the job's bench.job span.
func synthJob(r *row, rec *recorder) jobResult {
	tr := rec.tracer()
	jsp := tr.Start("bench.job", 0)
	opts := r.opts
	opts.Trace, opts.TraceParent = tr, jsp.ID()
	var cancel atomic.Bool
	opts.Cancel = &cancel
	timer := time.AfterFunc(jobTimeout, func() { cancel.Store(true) })
	t0 := time.Now()
	csp := tr.Start("bench.compile", jsp.ID())
	sk, err := psketch.Compile(r.src, "Main", opts)
	csp.End()
	var res *psketch.Result
	if err == nil {
		res, err = sk.Synthesize()
	}
	j := jobResult{key: r.key.String(), latency: time.Since(t0)}
	timer.Stop()
	endJob(jsp, j.key)
	if err != nil {
		j.err = jobError(j.key, err, cancel.Load())
		return j
	}
	s := res.Stats
	j.c = counters{
		Holes: sk.Holes(), Iterations: s.Iterations,
		SATConfl: s.SATConfl, SATVars: s.SATVars, SATClauses: s.SATClauses,
		ProjHits: s.ProjHits, ProjMisses: s.ProjMisses,
		MCStates: s.MCStates, MCTrans: s.MCTrans, VisitedBytes: s.MCVisitedBytes,
		ProofLemmas: s.ProofLemmas, ProofChecked: s.ProofChecked,
		synthTotal: s.Total,
	}
	// The check keeps only what it needs, not the Result, whose
	// certificate or candidate program would otherwise stay live for the
	// rest of the run and raise every later job's heap.
	resolved, cand, hasCert := res.Resolved, res.Candidate, res.Certificate != nil
	j.check = func() error { return r.checkVerdict(resolved, cand, hasCert) }
	return j
}
