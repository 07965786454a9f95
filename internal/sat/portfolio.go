package sat

import (
	"sync"
	"sync/atomic"

	"psketch/internal/drat"
	"psketch/internal/obs"
)

// WorkerStats summarizes one portfolio worker's lifetime work.
type WorkerStats struct {
	Wins         int64 // races this worker answered first
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Exported     int64 // learnt clauses published to the shared pool
	Imported     int64 // shared clauses adopted from other workers
	BusExported  int64 // learnt clauses relayed to the cross-cube bus
	BusImported  int64 // bus clauses adopted from other cubes
}

// Portfolio races N diversified CDCL solvers on the same formula.
// NewVar and AddClause broadcast to every worker, so variable indices
// and the clause set stay aligned; each worker keeps its own learnt
// clauses, activities and saved phases across Solve calls, which is
// what makes the portfolio incremental across CEGIS iterations.
//
// Workers additionally exchange short, low-LBD learned clauses through
// a bounded shared pool: a worker exports on learning (under the
// length/LBD caps of share.go) and imports everyone else's exports at
// its restart boundaries, so diversified searches stop rediscovering
// each other's conflicts. Sharing is sound — learned clauses are
// implied by the common problem clauses alone — and can be disabled
// with SetSharing(false) for ablation. A 1-worker portfolio never
// creates a pool.
//
// Solve runs every worker in its own goroutine under a shared
// cancellation token; the first worker to reach a verdict wins, the
// rest are canceled and joined before Solve returns. Both verdicts are
// sound for every worker (the workers solve the same clause set; level-0
// units learned by one worker are implied for all), so whichever
// finishes first may answer. With one worker no goroutines are spawned
// and the behaviour is bit-for-bit the plain Solver's.
type Portfolio struct {
	ws     []*Solver
	pool   *sharedPool
	winner int
	wins   []int64

	// Tracing (see trace.go): nil tr disables; spanParent is the span
	// the next solve's "sat.solve" span nests under.
	tr         *obs.Tracer
	spanParent obs.SpanID
}

// NewPortfolio returns a portfolio of n diversified workers (n < 1 is
// treated as 1) with clause sharing enabled. Worker 0 always runs the
// default configuration.
func NewPortfolio(n int) *Portfolio {
	if n < 1 {
		n = 1
	}
	p := &Portfolio{ws: make([]*Solver, n), wins: make([]int64, n), winner: -1}
	for i := range p.ws {
		p.ws[i] = NewWith(DiverseConfig(i))
	}
	if n > 1 {
		p.pool = &sharedPool{}
		for i, w := range p.ws {
			w.shared, w.sharedID = p.pool, i
		}
	}
	return p
}

// SetSharing enables or disables the learned-clause pool. Call between
// Solve calls only. Disabling drops the pool reference but keeps
// clauses already imported (they are implied, so they stay sound).
func (p *Portfolio) SetSharing(on bool) {
	if len(p.ws) == 1 {
		return
	}
	if !on {
		p.pool = nil
		for _, w := range p.ws {
			w.shared = nil
		}
		return
	}
	if p.pool == nil {
		p.pool = &sharedPool{}
	}
	for i, w := range p.ws {
		w.shared, w.sharedID = p.pool, i
	}
}

// Sharing reports whether the learned-clause pool is active.
func (p *Portfolio) Sharing() bool { return p.pool != nil }

// SetProof attaches one DRAT proof sink to every worker. The
// underlying recorder's mutex linearizes the workers' learnt clauses
// into a single merged derivation; only worker 0 logs problem clauses
// (AddClause broadcasts the identical stream to every worker, so one
// copy suffices), and the recorder drops per-worker deletions once more
// than one solver is attached. Call before adding clauses.
func (p *Portfolio) SetProof(r drat.Sink) {
	for i, w := range p.ws {
		w.proof = r
		w.proofPremises = i == 0
		if r != nil {
			r.Attach()
		}
	}
}

// SetBus connects every worker to the cross-cube clause bus as members
// of cube id: each worker exports its own prefix-only learnt clauses
// and imports other cubes' at restart boundaries, while skipping
// clauses its own cube published (intra-cube exchange stays the shared
// pool's job). Call between Solve calls only.
func (p *Portfolio) SetBus(b *Bus, id int) {
	for _, w := range p.ws {
		w.SetBus(b, id)
	}
}

// NumWorkers returns the portfolio size.
func (p *Portfolio) NumWorkers() int { return len(p.ws) }

// NumVars returns the number of allocated variables.
func (p *Portfolio) NumVars() int { return p.ws[0].NumVars() }

// NumClauses returns the number of problem clauses.
func (p *Portfolio) NumClauses() int { return p.ws[0].NumClauses() }

// NewVar allocates the same fresh variable in every worker.
func (p *Portfolio) NewVar() int { return p.NewVars(1) }

// NewVars allocates the same n fresh variables in every worker and
// returns the first.
func (p *Portfolio) NewVars(n int) int {
	v := p.ws[0].NewVars(n)
	for _, w := range p.ws[1:] {
		w.NewVars(n)
	}
	return v
}

// AddClause broadcasts a problem clause. It returns false as soon as
// any worker can show the formula unsatisfiable (workers may diverge
// on when they notice, having learned different level-0 units).
func (p *Portfolio) AddClause(lits ...Lit) bool {
	ok := true
	for _, w := range p.ws {
		if !w.AddClause(lits...) {
			ok = false
		}
	}
	return ok
}

// AddClauses broadcasts a batch of clauses (flat literals + end
// offsets) worker-major: each worker consumes the whole batch in order
// before the next worker starts, so one batch touches each worker's
// assignment and watch arrays once instead of once per clause. The
// per-worker clause stream is identical to repeated AddClause calls.
func (p *Portfolio) AddClauses(lits []Lit, ends []int) bool {
	ok := true
	for _, w := range p.ws {
		if !w.AddClauses(lits, ends) {
			ok = false
		}
	}
	return ok
}

// Solve races the workers under the given assumptions. The winning
// worker's model is the one Value reads afterwards.
func (p *Portfolio) Solve(assumptions ...Lit) bool {
	ok, _ := p.SolveCancel(nil, assumptions...)
	return ok
}

// SolveCancel is Solve with an external cancellation token: when
// another goroutine sets cancel, every worker unwinds and SolveCancel
// returns canceled=true with no verdict (unless some worker had already
// answered, in which case its verdict stands). The portfolio stays
// incremental either way. This is how the pipelined CEGIS loop tears
// down a speculative solve the verifier has made moot.
func (p *Portfolio) SolveCancel(cancel *atomic.Bool, assumptions ...Lit) (sat, canceled bool) {
	if len(p.ws) == 1 {
		ok, canceled := p.ws[0].SolveCancel(cancel, assumptions...)
		if canceled {
			return false, true
		}
		p.winner = 0
		p.wins[0]++
		return ok, false
	}
	sp := p.tr.Start("sat.solve", p.spanParent)
	if sp.Active() {
		// Repoint before the goroutines launch; workers are quiescent.
		for _, w := range p.ws {
			w.spanParent = sp.ID()
		}
	}
	var won atomic.Bool
	type answer struct {
		worker int
		sat    bool
	}
	ch := make(chan answer, len(p.ws))
	var wg sync.WaitGroup
	for i, w := range p.ws {
		wg.Add(1)
		go func(i int, w *Solver) {
			defer wg.Done()
			ok, canceled := w.SolveCancel2(&won, cancel, assumptions...)
			if !canceled {
				ch <- answer{i, ok}
				won.Store(true)
			}
		}(i, w)
	}
	// Join every worker before returning so the caller may immediately
	// AddClause or re-Solve: the portfolio is quiescent between calls.
	wg.Wait()
	close(ch)
	// The race-winner token is only set after a send, so the first
	// finisher is never canceled by it; the channel is empty only when
	// the external token canceled every worker first.
	a, ok := <-ch
	if !ok {
		if sp.Active() {
			sp.End(obs.Int("workers", int64(len(p.ws))), obs.Int("canceled", 1))
		}
		return false, true
	}
	p.winner = a.worker
	p.wins[a.worker]++
	if sp.Active() {
		sp.End(obs.Int("workers", int64(len(p.ws))),
			obs.Int("winner", int64(a.worker)),
			obs.Int("sat", boolInt(a.sat)))
	}
	return a.sat, false
}

// Value returns the winning worker's model value for a variable.
func (p *Portfolio) Value(v int) bool {
	if p.winner < 0 {
		return false
	}
	return p.ws[p.winner].Value(v)
}

// Conflicts returns the conflicts summed over all workers.
func (p *Portfolio) Conflicts() int64 {
	var n int64
	for _, w := range p.ws {
		n += w.Stats.Conflicts
	}
	return n
}

// WorkerStats returns per-worker lifetime statistics (the per-worker
// columns of the Figure 9 regeneration).
func (p *Portfolio) WorkerStats() []WorkerStats {
	out := make([]WorkerStats, len(p.ws))
	for i, w := range p.ws {
		out[i] = WorkerStats{
			Wins:         p.wins[i],
			Conflicts:    w.Stats.Conflicts,
			Decisions:    w.Stats.Decisions,
			Propagations: w.Stats.Propagations,
			Restarts:     w.Stats.Restarts,
			Exported:     w.Stats.Exported,
			Imported:     w.Stats.Imported,
			BusExported:  w.Stats.BusExported,
			BusImported:  w.Stats.BusImported,
		}
	}
	return out
}
