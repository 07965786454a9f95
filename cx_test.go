package psketch

import "testing"

// Force the CEGIS loop through counterexample traces: the first SAT
// model (all zero bits) picks the racy branch, which must be refuted by
// a trace, and learning must converge on the atomic one. The first
// model is the deterministic -j 1 solver's; a portfolio worker may
// guess the atomic branch first, so the trajectory is pinned to -j 1.
func TestConcurrentLearning(t *testing.T) {
	src := `
int counter = 0;

void Incr() {
	if ({| true | false |}) {
		int t = counter;
		t = t + 1;
		counter = t;
	} else {
		atomic { counter = counter + 1; }
	}
}

harness void Main() {
	fork (i; 2) {
		Incr();
		Incr();
	}
	assert counter == 4;
}
`
	res, err := Synthesize(src, "Main", Options{Parallelism: 1, Verbose: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("expected resolution")
	}
	if res.Stats.Iterations < 2 {
		t.Fatalf("expected at least 2 iterations, got %d", res.Stats.Iterations)
	}
	t.Logf("iterations=%d code:\n%s", res.Stats.Iterations, res.Code)
}

// An unresolvable sketch must come back NO (UNSAT) rather than loop.
func TestConcurrentUnresolvable(t *testing.T) {
	src := `
int counter = 0;

harness void Main() {
	fork (i; 2) {
		int t = counter;
		t = t + {| 1 | 2 |};
		counter = t;
	}
	assert counter == 2;
}
`
	res, err := Synthesize(src, "Main", Options{Verbose: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved {
		t.Fatalf("expected NO, got candidate %v\n%s", res.Candidate, res.Code)
	}
	t.Logf("unresolvable after %d iterations", res.Stats.Iterations)
}
