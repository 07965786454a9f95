package sat

import (
	"math/rand"
	"testing"
)

func TestSharedPoolFetchSkipsOwn(t *testing.T) {
	p := &sharedPool{}
	p.publish(0, []Lit{MkLit(0, false)})
	p.publish(1, []Lit{MkLit(1, false)})
	p.publish(0, []Lit{MkLit(2, false)})

	got, cur := p.fetch(0, 0)
	if len(got) != 1 || got[0][0] != MkLit(1, false) {
		t.Fatalf("worker 0 should fetch only worker 1's clause, got %v", got)
	}
	if cur != 3 {
		t.Fatalf("cursor should advance to 3, got %d", cur)
	}
	// Nothing new since the cursor.
	got, cur = p.fetch(cur, 0)
	if len(got) != 0 || cur != 3 {
		t.Fatalf("expected empty fetch at cursor, got %v cur=%d", got, cur)
	}
	// A different consumer sees worker 0's two clauses.
	got, _ = p.fetch(0, 1)
	if len(got) != 2 {
		t.Fatalf("worker 1 should fetch 2 clauses, got %d", len(got))
	}
}

// A consumer that falls more than shareCap behind silently loses the
// overwritten clauses instead of reading torn ring slots.
func TestSharedPoolOverflow(t *testing.T) {
	p := &sharedPool{}
	total := shareCap + 100
	for i := 0; i < total; i++ {
		p.publish(1, []Lit{MkLit(i, false)})
	}
	got, cur := p.fetch(0, 0)
	if len(got) != shareCap {
		t.Fatalf("stale consumer should see exactly the ring, got %d", len(got))
	}
	if got[0][0] != MkLit(total-shareCap, false) {
		t.Fatalf("oldest surviving clause wrong: %v", got[0])
	}
	if cur != uint64(total) {
		t.Fatalf("cursor should jump to %d, got %d", total, cur)
	}
	if p.published() != uint64(total) {
		t.Fatalf("published()=%d, want %d", p.published(), total)
	}
}

// White-box: a solver attached to a pool imports foreign clauses at
// solve entry, counts them, and treats imported units as forcing.
func TestSolverImportsShared(t *testing.T) {
	pool := &sharedPool{}
	s := New()
	s.shared, s.sharedID = pool, 0
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))

	pool.publish(1, []Lit{MkLit(a, true)}) // foreign unit: !a
	if !s.Solve() {
		t.Fatal("expected SAT")
	}
	if s.Value(a) {
		t.Fatal("imported unit !a must force a=false")
	}
	if s.Stats.Imported != 1 {
		t.Fatalf("Imported=%d, want 1", s.Stats.Imported)
	}

	// A contradicting foreign unit makes the formula UNSAT on import.
	pool.publish(1, []Lit{MkLit(b, true)})
	if s.Solve() {
		t.Fatal("expected UNSAT after importing !b")
	}
}

// End-to-end: on a hard instance the sharing portfolio actually
// exchanges clauses, and its verdict stays sound.
func TestPortfolioSharingExchangesClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPortfolio(4)
	if !p.Sharing() {
		t.Fatal("multi-worker portfolio should share by default")
	}
	nv := 120
	for i := 0; i < nv; i++ {
		p.NewVar()
	}
	// Near the 3-SAT phase transition: plenty of conflicts and short
	// learnt clauses on every worker.
	for i := 0; i < int(4.2*float64(nv)); i++ {
		p.AddClause(
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
		)
	}
	p.Solve()
	// Solve again so even a race won before the first restart has an
	// import opportunity at solve entry.
	p.Solve()
	var exported, imported int64
	for _, w := range p.WorkerStats() {
		exported += w.Exported
		imported += w.Imported
	}
	if exported == 0 {
		t.Fatal("no worker exported any clause")
	}
	if imported == 0 {
		t.Fatal("no worker imported any clause")
	}
	if uint64(exported) != p.pool.published() {
		t.Fatalf("Exported sum %d != pool published %d", exported, p.pool.published())
	}
}

// SetSharing(false) must detach the pool so ablation runs are clean.
func TestPortfolioSetSharing(t *testing.T) {
	p := NewPortfolio(2)
	p.SetSharing(false)
	if p.Sharing() {
		t.Fatal("sharing should be off")
	}
	for _, w := range p.ws {
		if w.shared != nil {
			t.Fatal("worker still attached to pool")
		}
	}
	pigeonholeAdder(p, 6)
	if p.Solve() {
		t.Fatal("expected UNSAT")
	}
	for _, w := range p.WorkerStats() {
		if w.Exported != 0 || w.Imported != 0 {
			t.Fatalf("sharing disabled but stats moved: %+v", w)
		}
	}
	p.SetSharing(true)
	if !p.Sharing() {
		t.Fatal("sharing should be back on")
	}
	// 1-worker portfolios never share.
	q := NewPortfolio(1)
	q.SetSharing(true)
	if q.Sharing() {
		t.Fatal("1-worker portfolio must not create a pool")
	}
}

// The batch path must be behavior-identical to serial AddClause.
func TestAddClausesMatchesAddClause(t *testing.T) {
	build := func(add func(s Adder, cs [][]Lit)) *Solver {
		s := New()
		for i := 0; i < 9; i++ {
			s.NewVar()
		}
		var cs [][]Lit
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 40; i++ {
			c := []Lit{
				MkLit(rng.Intn(9), rng.Intn(2) == 0),
				MkLit(rng.Intn(9), rng.Intn(2) == 0),
			}
			cs = append(cs, c)
		}
		add(s, cs)
		return s
	}
	serial := build(func(s Adder, cs [][]Lit) {
		for _, c := range cs {
			s.AddClause(c...)
		}
	})
	batch := build(func(s Adder, cs [][]Lit) {
		var lits []Lit
		var ends []int
		for _, c := range cs {
			lits = append(lits, c...)
			ends = append(ends, len(lits))
		}
		s.AddClauses(lits, ends)
	})
	sv, bv := serial.Solve(), batch.Solve()
	if sv != bv {
		t.Fatalf("verdicts diverge: serial=%v batch=%v", sv, bv)
	}
	if serial.Stats != batch.Stats {
		t.Fatalf("batch add diverged from serial:\n%+v\n%+v", serial.Stats, batch.Stats)
	}
}

// Alloc-tracked broadcast of a projection-sized clause batch into a
// 4-worker portfolio: batch vs. per-clause calls.
func BenchmarkPortfolioAddClauses(b *testing.B) {
	const nv, ncl = 256, 64
	mk := func() (*Portfolio, []Lit, []int) {
		p := NewPortfolio(4)
		for i := 0; i < nv; i++ {
			p.NewVar()
		}
		rng := rand.New(rand.NewSource(9))
		var lits []Lit
		var ends []int
		for i := 0; i < ncl; i++ {
			for j := 0; j < 3; j++ {
				lits = append(lits, MkLit(rng.Intn(nv), rng.Intn(2) == 0))
			}
			ends = append(ends, len(lits))
		}
		return p, lits, ends
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, lits, ends := mk()
			p.AddClauses(lits, ends)
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, lits, ends := mk()
			start := 0
			for _, e := range ends {
				p.AddClause(lits[start:e]...)
				start = e
			}
		}
	})
}

// White-box boundary check of the export quality gates: a clause of
// exactly shareMaxLen literals or exactly shareMaxLBD distinct levels
// is exported; one past either cap is not.
func TestExportLearntBoundaries(t *testing.T) {
	mk := func() *Solver {
		s := New()
		for i := 0; i < 16; i++ {
			s.NewVar()
		}
		s.shared, s.sharedID = &sharedPool{}, 0
		return s
	}
	clause := func(n int) []Lit {
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = MkLit(i, false)
		}
		return lits
	}

	// Length gate. All vars unassigned → one decision level → LBD 1,
	// so only the length cap is in play.
	s := mk()
	s.exportLearnt(clause(shareMaxLen))
	if s.Stats.Exported != 1 || s.shared.published() != 1 {
		t.Fatalf("len=%d clause must export: Exported=%d", shareMaxLen, s.Stats.Exported)
	}
	s.exportLearnt(clause(shareMaxLen + 1))
	if s.Stats.Exported != 1 || s.shared.published() != 1 {
		t.Fatalf("len=%d clause must not export: Exported=%d", shareMaxLen+1, s.Stats.Exported)
	}

	// LBD gate: spread a short clause's vars over controlled decision
	// levels. shareMaxLBD distinct levels pass, one more is refused.
	s = mk()
	lits := clause(shareMaxLBD + 1)
	for i, l := range lits {
		s.level[l.Var()] = int32(i) // levels 0..shareMaxLBD → LBD = shareMaxLBD+1
	}
	if got := s.lbd(lits); got != shareMaxLBD+1 {
		t.Fatalf("lbd=%d, want %d", got, shareMaxLBD+1)
	}
	s.exportLearnt(lits)
	if s.Stats.Exported != 0 {
		t.Fatalf("LBD=%d clause must not export", shareMaxLBD+1)
	}
	s.level[lits[len(lits)-1].Var()] = 0 // merge one level → LBD = shareMaxLBD
	if got := s.lbd(lits); got != shareMaxLBD {
		t.Fatalf("lbd=%d, want %d", got, shareMaxLBD)
	}
	s.exportLearnt(lits)
	if s.Stats.Exported != 1 {
		t.Fatalf("LBD=%d clause must export", shareMaxLBD)
	}
}

// The cross-cube bus must refuse any clause mentioning a variable at
// or beyond the shared-prefix boundary, and count only relayed ones.
func TestBusPrefixFilter(t *testing.T) {
	b := NewBus(3) // shared prefix: vars 0,1,2
	if !b.Publish(0, []Lit{MkLit(0, false), MkLit(2, true)}) {
		t.Fatal("in-prefix clause refused")
	}
	if b.Publish(0, []Lit{MkLit(0, false), MkLit(3, true)}) {
		t.Fatal("clause with var 3 must be refused at maxVar=3")
	}
	if b.Published() != 1 {
		t.Fatalf("Published=%d, want 1", b.Published())
	}
	if b.MaxVar() != 3 {
		t.Fatalf("MaxVar=%d, want 3", b.MaxVar())
	}
	// Fetch skips the caller's own cube but serves others.
	if got, _ := b.Fetch(0, 0); len(got) != 0 {
		t.Fatalf("origin cube re-fetched its own clause: %v", got)
	}
	got, cur := b.Fetch(0, 1)
	if len(got) != 1 || cur != 1 {
		t.Fatalf("other cube should fetch 1 clause, got %d cur=%d", len(got), cur)
	}

	// A solver wired to the bus applies the same filter at export time:
	// the pool takes the clause, the bus refuses it.
	s := New()
	for i := 0; i < 8; i++ {
		s.NewVar()
	}
	s.shared, s.sharedID = &sharedPool{}, 0
	s.bus, s.busID = NewBus(2), 5
	s.exportLearnt([]Lit{MkLit(0, false), MkLit(4, true)})
	if s.Stats.Exported != 1 {
		t.Fatalf("pool export missing: %d", s.Stats.Exported)
	}
	if s.Stats.BusExported != 0 || s.bus.Published() != 0 {
		t.Fatal("bus must refuse out-of-prefix clause")
	}
	s.exportLearnt([]Lit{MkLit(0, false), MkLit(1, true)})
	if s.Stats.BusExported != 1 || s.bus.Published() != 1 {
		t.Fatalf("in-prefix clause not relayed: BusExported=%d", s.Stats.BusExported)
	}
}
