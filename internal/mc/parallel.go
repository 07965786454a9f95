package mc

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"psketch/internal/interp"
	"psketch/internal/obs"
	"psketch/internal/state"
)

// stripedSet is the shared visited-state table of the parallel search:
// 64 independently locked map shards, indexed by the low bits of the
// state fingerprint, so workers contend only when they hash into the
// same stripe. Each entry carries the same bookkeeping as the
// sequential fpTable: the done-mask of claimed transitions and the
// stored persistent mask (pmaskKnown-tagged once computed).
type stripedSet struct {
	stripes [64]struct {
		mu sync.Mutex
		m  map[[16]byte]*pentry
	}
}

type pentry struct {
	done uint64
	pmw  uint64 // pmaskKnown | persistent mask, 0 while uncomputed
}

func newStripedSet() *stripedSet {
	s := &stripedSet{}
	for i := range s.stripes {
		s.stripes[i].m = map[[16]byte]*pentry{}
	}
	return s
}

// arrive registers the key, reporting whether this call created the
// entry (exactly one worker counts and classifies each state) plus a
// snapshot of the done mask and stored pmask word.
func (s *stripedSet) arrive(k [16]byte) (fresh bool, done, pmw uint64) {
	st := &s.stripes[k[0]&63]
	st.mu.Lock()
	e := st.m[k]
	if e == nil {
		e = &pentry{}
		st.m[k] = e
		fresh = true
	}
	done, pmw = e.done, e.pmw
	st.mu.Unlock()
	return fresh, done, pmw
}

// claim atomically takes the not-yet-done subset of want, marks it
// done, and stores the pmask word if the entry has none yet. The caller
// explores exactly the returned transitions.
func (s *stripedSet) claim(k [16]byte, pmw, want uint64) uint64 {
	st := &s.stripes[k[0]&63]
	st.mu.Lock()
	e := st.m[k]
	todo := want &^ e.done
	e.done |= todo
	if e.pmw == 0 {
		e.pmw = pmw
	}
	st.mu.Unlock()
	return todo
}

// pshared is the state the parallel search workers share: the visited
// set, the global state/transition counters, the collected traces, and
// the cancellation flag that stops every shard once the trace budget is
// met (or an error occurred).
type pshared struct {
	visited   *stripedSet
	states    atomic.Int64
	trans     atomic.Int64
	maxStates int
	maxTraces int
	cancel    atomic.Bool

	mu     sync.Mutex
	traces []*Trace
	err    error
}

// record stores a counterexample (up to the trace budget) and cancels
// the search when the budget is met.
func (sh *pshared) record(tr *Trace) {
	sh.mu.Lock()
	if len(sh.traces) < sh.maxTraces {
		sh.traces = append(sh.traces, tr)
	}
	full := len(sh.traces) >= sh.maxTraces
	sh.mu.Unlock()
	if full {
		sh.cancel.Store(true)
	}
}

// fail records the first error and cancels all workers.
func (sh *pshared) fail(err error) {
	sh.mu.Lock()
	if sh.err == nil {
		sh.err = err
	}
	sh.mu.Unlock()
	sh.cancel.Store(true)
}

// pworker is one parallel search worker: the sequential checker's
// normalization/status/trace helpers (via embedding, with its own
// evaluation contexts and state freelist) plus dfs/expand variants that
// go through the shared visited table and counters.
type pworker struct {
	checker
	sh       *pshared
	expanded int64 // states this worker claimed first
}

func (w *pworker) dfsChild(st *state.State, t int, sleep uint64, path *[]Event, h1, h2 uint64) error {
	if w.sh.cancel.Load() {
		return nil
	}
	b1, b2 := w.hz.block(st, t)
	if f := w.advance(st, t, path); f != nil {
		w.sh.record(w.failTrace(*path, f, t))
		return nil
	}
	a1, a2 := w.hz.block(st, t)
	return w.expand(st, sleep, path, h1^b1^a1, h2^b2^a2)
}

func (w *pworker) expand(st *state.State, sleep uint64, path *[]Event, h1, h2 uint64) error {
	if w.opts.Cancel != nil && w.opts.Cancel.Load() {
		// Route through fail so checkParallel reports ErrCanceled (the
		// partial traces collected so far are not a verdict).
		w.sh.fail(ErrCanceled)
		return nil
	}
	if debugHash {
		if f1, f2 := w.hz.full(st); f1 != h1 || f2 != h2 {
			panic("mc: incremental fingerprint diverged from full rehash")
		}
	}
	k := key16(h1, h2)
	fresh, done, pmw := w.sh.visited.arrive(k)
	if !fresh && pmw&pmaskKnown != 0 && (pmw&^pmaskKnown)&^sleep&^done == 0 {
		return nil // nothing new to explore here
	}
	var pmask uint64
	if pmw&pmaskKnown != 0 {
		pmask = pmw &^ pmaskKnown
	} else {
		// The persistent mask depends only on the state (and the fixed
		// candidate), so racing workers that compute it concurrently
		// agree on the value; claim() keeps the first stored word.
		unfinished, enabled, unfin, tr := w.statusMask(st)
		if fresh {
			w.expanded++
			// The DFS is CPU-bound; when workers outnumber cores, a
			// shard that would find a counterexample quickly can starve
			// behind a large benign shard for a full preemption quantum
			// (~10ms). Yielding every so often bounds that latency and,
			// with it, how long a cancelled search keeps burning cycles.
			if w.expanded&255 == 0 {
				runtime.Gosched()
			}
			if w.sh.states.Add(1) > int64(w.sh.maxStates) {
				return fmt.Errorf("mc: state space exceeds %d states", w.sh.maxStates)
			}
			switch {
			case tr != nil:
				tr.Events = append(tr.Events, *path...)
				w.sh.record(tr)
			case unfinished == 0:
				if f := w.runSequential(w.scratchFrom(st), w.p.Epilogue); f != nil {
					w.sh.record(w.failTraceEpilogue(*path, f))
				}
			case enabled == 0:
				blocked := w.blockedEvents(st, unfin)
				f := &interp.Failure{Kind: interp.FailDeadlock, Pos: w.p.Threads[blocked[0].Thread].Steps[blocked[0].Step].Pos}
				dtr := w.failTrace(*path, f, -1)
				dtr.Deadlocked = blocked
				w.sh.record(dtr)
			default:
				pmask = enabled
				if w.por {
					pmask = w.pt.persistentSet(st, enabled, unfin)
					w.porPruned += int64(bits.OnesCount64(enabled &^ pmask))
				}
			}
		} else if tr == nil && unfinished > 0 && enabled != 0 {
			// A racing revisit before the first arriver stored its
			// mask: recompute and claim what we can (any valid
			// persistent set is sound; claim keeps the first stored).
			pmask = enabled
			if w.por {
				pmask = w.pt.persistentSet(st, enabled, unfin)
			}
		}
	}
	w.sleepSkips += int64(bits.OnesCount64(pmask & sleep))
	todo := w.sh.visited.claim(k, pmaskKnown|pmask, pmask&^sleep)
	if todo == 0 {
		return nil
	}
	single := todo&(todo-1) == 0
	explored := uint64(0)
	for work := todo; work != 0; {
		t := bits.TrailingZeros64(work)
		work &^= 1 << uint(t)
		if w.sh.cancel.Load() {
			return nil
		}
		var cs uint64
		if w.por {
			cs = w.pt.childSleep(st, sleep|explored, t)
		}
		explored |= 1 << uint(t)
		child := st
		if !single {
			child = w.cloneState(st)
		}
		seq := w.p.Threads[t]
		pc := int(child.PCs[t])
		step := seq.Steps[pc]
		ctx := w.ctxs[t]
		ctx.Reset(child, seq)
		w.sh.trans.Add(1)
		*path = append(*path, Event{Thread: t, Step: pc})
		preB1, preB2 := w.hz.block(child, t)
		preS1, preS2 := w.hz.sharedW(child, t, pc)
		if f := ctx.ExecBody(step); f != nil {
			w.sh.record(w.failTrace(*path, f, t))
			*path = (*path)[:len(*path)-1]
			if !single {
				w.release(child)
			}
			continue
		}
		child.PCs[t] = int32(pc + 1)
		postS1, postS2 := w.hz.sharedW(child, t, pc)
		postB1, postB2 := w.hz.block(child, t)
		mark := len(*path)
		err := w.dfsChild(child, t, cs, path,
			h1^preB1^postB1^preS1^postS1, h2^preB2^postB2^preS2^postS2)
		if !single {
			w.release(child)
		}
		if err != nil {
			return err
		}
		*path = (*path)[:mark-1]
	}
	return nil
}

// checkParallel runs the sharded search: the root state is normalized
// and expanded on the caller's goroutine, then each member of the
// root's persistent set becomes a shard (seeded with the sleep set its
// sequential sibling order implies), and Parallelism workers drain the
// shard queue against the shared visited table.
func (m *checker) checkParallel(st *state.State) (*Result, error) {
	sh := &pshared{visited: newStripedSet(), maxStates: m.opts.MaxStates, maxTraces: m.opts.MaxTraces}
	m.pvisited = sh.visited
	finish := func(workers int, perWorker []int) *Result {
		res := &Result{
			OK:     len(sh.traces) == 0,
			Traces: sh.traces,
			States: int(sh.states.Load()),
			Trans:  int(sh.trans.Load()),

			Workers:      workers,
			WorkerStates: perWorker,
		}
		if !res.OK {
			res.Trace = sh.traces[0]
		}
		return res
	}

	// Root handling mirrors the sequential dfs+expand exactly.
	var prefix []Event
	if t, f := m.normalize(st, &prefix); f != nil {
		sh.record(m.failTrace(prefix, f, t))
		return finish(0, nil), nil
	}
	rootKey := key16(m.hz.full(st))
	sh.visited.arrive(rootKey)
	sh.states.Add(1)
	unfinished, enabled, unfin, tr := m.statusMask(st)
	switch {
	case tr != nil:
		tr.Events = append(tr.Events, prefix...)
		sh.record(tr)
		return finish(0, nil), nil
	case unfinished == 0:
		if f := m.runSequential(m.scratchFrom(st), m.p.Epilogue); f != nil {
			sh.record(m.failTraceEpilogue(prefix, f))
		}
		return finish(0, nil), nil
	case enabled == 0:
		blocked := m.blockedEvents(st, unfin)
		f := &interp.Failure{Kind: interp.FailDeadlock, Pos: m.p.Threads[blocked[0].Thread].Steps[blocked[0].Step].Pos}
		dtr := m.failTrace(prefix, f, -1)
		dtr.Deadlocked = blocked
		sh.record(dtr)
		return finish(0, nil), nil
	}
	pmask := enabled
	if m.por {
		pmask = m.pt.persistentSet(st, enabled, unfin)
		m.porPruned += int64(bits.OnesCount64(enabled &^ pmask))
	}
	sh.visited.claim(rootKey, pmaskKnown|pmask, pmask)

	// One shard per member of the root persistent set, each seeded with
	// the sleep set the sequential sibling order would give it.
	type shard struct {
		st     *state.State
		path   []Event
		t      int
		sleep  uint64
		h1, h2 uint64
	}
	var shards []shard
	explored := uint64(0)
	for work := pmask; work != 0; {
		t := bits.TrailingZeros64(work)
		work &^= 1 << uint(t)
		var cs uint64
		if m.por {
			cs = m.pt.childSleep(st, explored, t)
		}
		explored |= 1 << uint(t)
		child := st.Clone()
		seq := m.p.Threads[t]
		pc := int(child.PCs[t])
		step := seq.Steps[pc]
		ctx := m.ctxs[t]
		ctx.Reset(child, seq)
		sh.trans.Add(1)
		spath := append(append([]Event(nil), prefix...), Event{Thread: t, Step: pc})
		if f := ctx.ExecBody(step); f != nil {
			sh.record(m.failTrace(spath, f, t))
			continue
		}
		child.PCs[t] = int32(pc + 1)
		sh1, sh2 := m.hz.full(child)
		shards = append(shards, shard{child, spath, t, cs, sh1, sh2})
	}

	workers := m.opts.Parallelism
	if workers > len(shards) {
		workers = len(shards)
	}
	perWorker := make([]int, workers)
	perPruned := make([]int64, workers)
	perSleep := make([]int64, workers)
	if workers > 0 && !sh.cancel.Load() {
		queue := make(chan shard, len(shards))
		for _, s := range shards {
			queue <- s
		}
		close(queue)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				wsp := m.opts.Tracer.Start("mc.worker", m.span.ID())
				w := &pworker{checker: checker{l: m.l, p: m.p, cand: m.cand, opts: m.opts, por: m.por, pt: m.pt, hz: m.hz}, sh: sh}
				w.initEval()
				for s := range queue {
					if sh.cancel.Load() {
						break
					}
					path := s.path
					if err := w.dfsChild(s.st, s.t, s.sleep, &path, s.h1, s.h2); err != nil {
						sh.fail(err)
						break
					}
				}
				perWorker[id] = int(w.expanded)
				perPruned[id] = w.porPruned
				perSleep[id] = w.sleepSkips
				if wsp.Active() {
					wsp.End(obs.Int("worker", int64(id)),
						obs.Int("states", w.expanded),
						obs.Int("por_pruned", w.porPruned),
						obs.Int("sleep_skips", w.sleepSkips))
				}
			}(i)
		}
		wg.Wait()
	}
	// Fold the workers' POR counters into the parent checker so the
	// mc.check span reports whole-search totals.
	for i := 0; i < workers; i++ {
		m.porPruned += perPruned[i]
		m.sleepSkips += perSleep[i]
	}
	if sh.err != nil {
		return nil, sh.err
	}
	return finish(workers, perWorker), nil
}
