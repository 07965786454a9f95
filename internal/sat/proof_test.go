package sat

import (
	"math/rand"
	"testing"

	"psketch/internal/drat"
)

// clauseAdder lets the pigeonhole encoder target both the plain solver
// and the portfolio.
type clauseAdder interface {
	NewVar() int
	AddClause(lits ...Lit) bool
}

// addPigeonhole encodes PHP(pigeons, holes): every pigeon sits in some
// hole, no two pigeons share one. UNSAT iff pigeons > holes, and the
// refutation is never pure unit propagation, so the proof must carry
// real lemmas.
func addPigeonhole(s clauseAdder, pigeons, holes int) {
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		var c []Lit
		for h := 0; h < holes; h++ {
			c = append(c, MkLit(vars[p][h], false))
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
}

// PHP(6,5) never reduces the learnt-clause database; PHP(9,8) reduces
// it six times, so its replay also checks the DeleteLemma stream and
// the lemmas learned after each reduction.
func TestSolverProofPigeonhole(t *testing.T) {
	for _, in := range []struct{ pigeons, holes int }{{6, 5}, {9, 8}} {
		s := New()
		r := drat.NewRecorder()
		s.SetProof(r)
		addPigeonhole(s, in.pigeons, in.holes)
		if s.Solve() {
			t.Fatalf("PHP(%d,%d) reported SAT", in.pigeons, in.holes)
		}
		if in.pigeons == 9 && s.Stats.Reduces == 0 {
			t.Fatal("PHP(9,8) never reduced the learnt-clause database")
		}
		cert := r.Certificate(nil)
		stats, err := cert.Verify()
		if err != nil {
			t.Fatalf("PHP(%d,%d) UNSAT certificate rejected: %v", in.pigeons, in.holes, err)
		}
		if stats.Checked == 0 {
			t.Fatalf("PHP(%d,%d) refutation verified without checking any lemma", in.pigeons, in.holes)
		}
		t.Logf("PHP(%d,%d) reduces=%d lemmas=%d checked=%d core=%d props=%d", in.pigeons, in.holes,
			s.Stats.Reduces, stats.Lemmas, stats.Checked, stats.Core, stats.Propagations)
	}
}

func TestPortfolioProofPigeonhole(t *testing.T) {
	for _, sharing := range []bool{true, false} {
		p := NewPortfolio(4)
		p.SetSharing(sharing)
		r := drat.NewRecorder()
		p.SetProof(r)
		addPigeonhole(p, 6, 5)
		if p.Solve() {
			t.Fatalf("PHP(6,5) reported SAT (sharing=%v)", sharing)
		}
		if _, err := r.Certificate(nil).Verify(); err != nil {
			t.Fatalf("merged portfolio certificate rejected (sharing=%v): %v", sharing, err)
		}
	}
}

func TestProofUnderAssumptions(t *testing.T) {
	// (¬a ∨ b) ∧ (¬b ∨ c) is satisfiable, but not under a ∧ ¬c.
	s := New()
	r := drat.NewRecorder()
	s.SetProof(r)
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(b, true), MkLit(c, false))
	assume := []Lit{MkLit(a, false), MkLit(c, true)}
	if s.Solve(assume...) {
		t.Fatal("expected UNSAT under assumptions")
	}
	dim := []int{Dimacs(assume[0]), Dimacs(assume[1])}
	if _, err := r.Certificate(dim).Verify(); err != nil {
		t.Fatalf("assumption certificate rejected: %v", err)
	}
	// The formula itself is satisfiable: with sound lemmas only, the
	// empty clause cannot close without the assumption units.
	if _, err := r.Certificate(nil).Verify(); err == nil {
		t.Fatal("satisfiable formula certified without its assumptions")
	}
	// The solver stays usable and the recorder keeps accruing.
	if !s.Solve() {
		t.Fatal("formula should be satisfiable without assumptions")
	}
}

// Every UNSAT verdict on random CNFs must replay — solo and portfolio,
// with clause sharing on. SAT verdicts are cross-checked by brute force
// so the test also guards against proof hooks corrupting search.
func TestRandomProofsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20080613))
	unsats := 0
	for iter := 0; iter < 200; iter++ {
		nv := 3 + rng.Intn(7)
		nc := 5 + rng.Intn(35)
		var clauses [][]Lit
		for i := 0; i < nc; i++ {
			width := 1 + rng.Intn(3)
			var c []Lit
			for j := 0; j < width; j++ {
				c = append(c, MkLit(rng.Intn(nv), rng.Intn(2) == 0))
			}
			clauses = append(clauses, c)
		}
		want := bruteForce(nv, clauses)

		s := New()
		r := drat.NewRecorder()
		s.SetProof(r)
		p := NewPortfolio(3)
		pr := drat.NewRecorder()
		p.SetProof(pr)
		for i := 0; i < nv; i++ {
			s.NewVar()
			p.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
			p.AddClause(c...)
		}
		if got := s.Solve(); got != want {
			t.Fatalf("iter %d: solo verdict %v, brute force %v", iter, got, want)
		}
		if got := p.Solve(); got != want {
			t.Fatalf("iter %d: portfolio verdict %v, brute force %v", iter, got, want)
		}
		if !want {
			unsats++
			if _, err := r.Certificate(nil).Verify(); err != nil {
				t.Fatalf("iter %d: solo certificate rejected: %v", iter, err)
			}
			if _, err := pr.Certificate(nil).Verify(); err != nil {
				t.Fatalf("iter %d: portfolio certificate rejected: %v", iter, err)
			}
		}
	}
	if unsats == 0 {
		t.Fatal("random instances produced no UNSAT cases; test is vacuous")
	}
	t.Logf("verified %d UNSAT certificates", unsats)
}

// Incremental CEGIS usage: clauses arrive between solves and the
// recorder spans the whole lifetime; the certificate taken at the final
// UNSAT must verify.
func TestIncrementalProof(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	verified := 0
	for iter := 0; iter < 60 && verified < 10; iter++ {
		nv := 4 + rng.Intn(5)
		s := New()
		r := drat.NewRecorder()
		s.SetProof(r)
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		for round := 0; round < 8; round++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				width := 1 + rng.Intn(3)
				var c []Lit
				for j := 0; j < width; j++ {
					c = append(c, MkLit(rng.Intn(nv), rng.Intn(2) == 0))
				}
				s.AddClause(c...)
			}
			if !s.Solve() {
				if _, err := r.Certificate(nil).Verify(); err != nil {
					t.Fatalf("iter %d round %d: incremental certificate rejected: %v", iter, round, err)
				}
				verified++
				break
			}
		}
	}
	if verified == 0 {
		t.Fatal("no incremental runs went UNSAT; test is vacuous")
	}
}
