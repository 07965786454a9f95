package sat

import "sync"

// Clause-sharing parameters: a worker exports a freshly learned clause
// when it is short (few literals) and high quality (low LBD — literals
// spanning few decision levels propagate soon after import). The pool
// is a bounded ring, so a slow consumer loses old clauses instead of
// stalling producers or growing memory without bound.
const (
	// shareMaxLen is the literal-count cap for exported clauses.
	shareMaxLen = 8
	// shareMaxLBD is the LBD (distinct-decision-level) cap.
	shareMaxLBD = 4
	// shareCap is the ring capacity; a worker that falls further behind
	// than this simply misses the overwritten clauses.
	shareCap = 4096
)

// sharedClause is one pooled learnt clause, tagged with its producer so
// workers never reimport their own exports.
type sharedClause struct {
	lits   []Lit
	origin int
}

// sharedPool is the portfolio's bounded exchange of short learned
// clauses. Producers publish under a mutex; consumers fetch every
// clause published since their cursor. All pooled clauses are implied
// by the problem clauses alone (first-UIP learning resolves only on
// reason clauses, so assumptions surface as literals, never as hidden
// premises), and every portfolio worker holds the same problem clauses
// over the same variable numbering, so imports are sound for everyone.
type sharedPool struct {
	mu   sync.Mutex
	ring [shareCap]sharedClause
	next uint64 // total clauses ever published
}

// publish stores a copy of lits in the ring.
func (p *sharedPool) publish(origin int, lits []Lit) {
	cp := append([]Lit(nil), lits...)
	p.mu.Lock()
	p.ring[p.next%shareCap] = sharedClause{lits: cp, origin: origin}
	p.next++
	p.mu.Unlock()
}

// fetch returns the clauses published at sequence numbers [from, next)
// that did not originate from worker self, plus the new cursor. Clauses
// overwritten since from (consumer more than shareCap behind) are
// skipped. The returned slices are immutable after publish and may be
// retained by the caller.
func (p *sharedPool) fetch(from uint64, self int) ([][]Lit, uint64) {
	p.mu.Lock()
	next := p.next
	if next-from > shareCap {
		from = next - shareCap
	}
	var out [][]Lit
	for i := from; i < next; i++ {
		c := p.ring[i%shareCap]
		if c.origin != self {
			out = append(out, c.lits)
		}
	}
	p.mu.Unlock()
	return out, next
}

// published returns the total number of clauses ever published (tests
// and stats only).
func (p *sharedPool) published() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

// Bus is the cross-cube generalization of the portfolio pool: a
// bounded broadcast exchange between solver GROUPS that share only a
// variable-numbering prefix, not a full clause database. Cube-and-
// conquer CEGIS (internal/cube) encodes the same sketch in every cube,
// so the setup variables — hole bits and structural constraints — are
// a deterministic common prefix; everything above it (per-cube
// projection Tseitin variables) means different things in different
// cubes. Publish therefore refuses any clause mentioning a variable at
// or beyond the prefix boundary: what remains is a clause over shared
// vocabulary, implied by problem clauses common to every cube (cube
// membership is enforced by Solve assumptions, never clauses, so
// learnt clauses carry no hidden cube premises — see
// ARCHITECTURE.md), and is sound for every other cube to adopt.
//
// Origins are cube IDs: every solver of one cube publishes and fetches
// under its cube's ID, so a cube never reimports its own exports
// (intra-cube exchange is the portfolio pool's job). The same
// length/LBD quality gates of the pool apply before Publish is ever
// called.
type Bus struct {
	maxVar int
	pool   sharedPool
}

// NewBus returns a bus that relays only clauses whose variables all
// lie in the shared prefix [0, maxVar).
func NewBus(maxVar int) *Bus {
	return &Bus{maxVar: maxVar}
}

// MaxVar returns the shared-prefix bound.
func (b *Bus) MaxVar() int { return b.maxVar }

// Publish offers a clause to every other cube. It reports whether the
// clause was relayed (false when any literal lies outside the shared
// prefix).
func (b *Bus) Publish(origin int, lits []Lit) bool {
	for _, l := range lits {
		if l.Var() >= b.maxVar {
			return false
		}
	}
	b.pool.publish(origin, lits)
	return true
}

// Fetch returns the clauses published since cursor from that did not
// originate from cube self, plus the new cursor.
func (b *Bus) Fetch(from uint64, self int) ([][]Lit, uint64) {
	return b.pool.fetch(from, self)
}

// Published returns the total number of clauses ever relayed.
func (b *Bus) Published() uint64 { return b.pool.published() }
