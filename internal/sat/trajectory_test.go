package sat

import "testing"

// The exact Stats of a fixed sequential solve pin the solver's search
// trajectory: a change to propagation order, conflict analysis, clause
// minimization, clause-database reduction or restarts moves at least
// one counter. The CEGIS benchmark's -j 1 work counters rest on the
// same trajectory, so a change here must be explained, not re-recorded.

// trajectory is the subset of Solver.Stats the pins compare.
type trajectory struct {
	Conflicts, Decisions, Propagations, Learned, Restarts, Reduces int64
}

func trajectoryOf(s *Solver) trajectory {
	return trajectory{s.Stats.Conflicts, s.Stats.Decisions, s.Stats.Propagations,
		s.Stats.Learned, s.Stats.Restarts, s.Stats.Reduces}
}

// PHP(9,8) runs long enough to reduce the learnt-clause database six
// times, so the pin covers reduction and everything after it.
func TestTrajectoryPigeonhole(t *testing.T) {
	s := New()
	addPigeonhole(s, 9, 8)
	if s.Solve() {
		t.Fatal("PHP(9,8) reported SAT")
	}
	want := trajectory{Conflicts: 19068, Decisions: 23233, Propagations: 242793,
		Learned: 19062, Restarts: 62, Reduces: 6}
	if got := trajectoryOf(s); got != want {
		t.Fatalf("PHP(9,8) trajectory\n got %+v\nwant %+v", got, want)
	}
}

// An incremental sequence: a guarded PHP(9,8) refuted under an
// assumption, then new problem clauses added after those reductions
// (some of them propagating at level 0), a second guarded pigeonhole
// refuted under another assumption, and two more solves. The Stats are
// cumulative, so each step pins everything before it as well.
func TestTrajectoryIncremental(t *testing.T) {
	s := New()
	sel1 := s.NewVar()
	addGuardedPigeonhole(s, MkLit(sel1, false), 9, 8)
	if s.Solve(MkLit(sel1, true)) {
		t.Fatal("guarded PHP(9,8) reported SAT under !sel1")
	}
	check := func(step string, want trajectory) (problemReasons int) {
		t.Helper()
		if got := trajectoryOf(s); got != want {
			t.Fatalf("%s trajectory\n got %+v\nwant %+v", step, got, want)
		}
		problemReasons, learntReasons := checkArena(t, s)
		t.Logf("%s: level-0 reasons: %d problem, %d learnt", step, problemReasons, learntReasons)
		return problemReasons
	}
	check("PHP(9,8) under !sel1", trajectory{Conflicts: 20358, Decisions: 24866,
		Propagations: 281082, Learned: 20357, Restarts: 69, Reduces: 7})

	// New problem clauses after the reductions: (!z | y_i) and then the
	// unit z, so each y_i is forced at level 0 by a clause that sits
	// behind the learnt clauses in the arena until the next reduction
	// moves it and forwards its reason.
	sel2 := s.NewVar()
	z := MkLit(s.NewVar(), false)
	var ys []Lit
	for i := 0; i < 4; i++ {
		y := MkLit(s.NewVar(), false)
		ys = append(ys, y)
		s.AddClause(z.Not(), y)
	}
	s.AddClause(z)
	addGuardedPigeonhole(s, MkLit(sel2, false), 8, 7)
	if s.Solve(MkLit(sel2, true), ys[0]) {
		t.Fatal("guarded PHP(8,7) reported SAT under !sel2")
	}
	if n := check("PHP(8,7) under !sel2", trajectory{Conflicts: 25831, Decisions: 31610,
		Propagations: 357436, Learned: 25829, Restarts: 97, Reduces: 10}); n < len(ys) {
		t.Fatalf("%d problem clauses are level-0 reasons, want at least the %d y_i", n, len(ys))
	}

	if !s.Solve(ys[1]) {
		t.Fatal("formula reported UNSAT without the guard assumptions")
	}
	if !s.Value(sel1) || !s.Value(sel2) {
		t.Fatal("model leaves a refuted pigeonhole unguarded")
	}
	check("SAT re-solve", trajectory{Conflicts: 25831, Decisions: 31738,
		Propagations: 357564, Learned: 25829, Restarts: 97, Reduces: 10})

	if s.Solve(MkLit(sel1, true)) {
		t.Fatal("guarded PHP(9,8) reported SAT under !sel1 on re-solve")
	}
	check("re-solve under !sel1", trajectory{Conflicts: 25831, Decisions: 31738,
		Propagations: 357564, Learned: 25829, Restarts: 97, Reduces: 10})
}

// addGuardedPigeonhole adds PHP(pigeons, holes) with guard as the first
// literal of every clause, so the pigeonhole binds only under the
// assumption !guard.
func addGuardedPigeonhole(s *Solver, guard Lit, pigeons, holes int) {
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		c := []Lit{guard}
		for h := 0; h < holes; h++ {
			c = append(c, MkLit(vars[p][h], false))
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(guard, MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
}

// checkArena verifies the clause arena of a solver at level 0: every
// listed clause decodes with the right learnt flag and no deletion
// mark, every watcher points at a listed clause through one of its two
// watched literals, and every assignment's reason is a listed clause
// whose first literal is the assigned one. It returns how many reasons
// are problem and learnt clauses.
func checkArena(t *testing.T, s *Solver) (problemReasons, learntReasons int) {
	t.Helper()
	listed := map[cref]bool{}
	for i, refs := range [][]cref{s.clauses, s.learnts} {
		for _, r := range refs {
			if s.learnt(r) != (i == 1) || s.arena[r]&hdrDrop != 0 || len(s.lits(r)) < 2 {
				t.Fatalf("clause %d: bad header %#x", r, s.arena[r])
			}
			listed[r] = true
		}
	}
	watched := 0
	for l, ws := range s.watches {
		for _, w := range ws {
			if !listed[w.ref] {
				t.Fatalf("watcher %+v on literal %d points at no listed clause", w, l)
			}
			c := s.lits(w.ref)
			if c[0].Not() != Lit(l) && c[1].Not() != Lit(l) {
				t.Fatalf("watcher %+v on literal %d watches neither first literal", w, l)
			}
			watched++
		}
	}
	if watched != 2*len(listed) {
		t.Fatalf("%d watchers for %d clauses", watched, len(listed))
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r == noRef {
			continue
		}
		if !listed[r] || s.lits(r)[0] != l {
			t.Fatalf("reason %d of %d is not a listed clause forcing it", r, l)
		}
		if s.learnt(r) {
			learntReasons++
		} else {
			problemReasons++
		}
	}
	return problemReasons, learntReasons
}
