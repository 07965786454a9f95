package mc

import (
	"testing"

	"psketch/internal/desugar"
)

// Two identical lock/unlock threads on one shared node: the smallest
// program whose unreduced state graph is hand-computable.
const symPairSrc = `
struct L { int v = 0; }
L a;
harness void Main() {
	a = new L();
	fork (i; 2) {
		lock(a);
		unlock(a);
	}
	assert a.v == 0;
}
`

// Hand-computed regression for the visited set. Writing a thread's
// position as its PC (0 = before lock, 1 = holds the lock, 2 = done),
// the unreduced graph is the 8-state diamond-with-tails
//
//	(0,0) -> (1,0) -> (2,0) -> (2,1) -> (2,2)
//	      -> (0,1) -> (0,2) -> (1,2) -> (2,2)
//
// (while one thread holds the lock the other is blocked, so each branch
// is a chain).
func TestUnreducedPinnedCounts(t *testing.T) {
	_, l, sk := lower(t, symPairSrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	raw, err := Check(l, cand, Options{NoPOR: true, NoLocalFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if !raw.OK || raw.States != 8 {
		t.Fatalf("unreduced search: ok=%v states=%d, want ok=true states=8", raw.OK, raw.States)
	}
}

// Every visited-set backend and the parallel engine must agree on the
// verdict (and failure kind) for each outcome class: lost update,
// verified atomic counter, AB-BA deadlock.
func TestCompressModesAgree(t *testing.T) {
	for _, src := range []string{racySrc, atomicSrc, deadlockSrc} {
		_, l, sk := lower(t, src, desugar.Options{})
		cand := make(desugar.Candidate, len(sk.Holes))
		base, err := Check(l, cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{
			{Compress: "collapse"},
			{Compress: "collapse", NoPOR: true},
			{Parallelism: 4},
		} {
			res, err := Check(l, cand, o)
			if err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
			if res.OK != base.OK {
				t.Fatalf("%+v changed the verdict: got %v want %v", o, res.OK, base.OK)
			}
			if !res.OK && res.Trace.Failure.Kind != base.Trace.Failure.Kind {
				t.Fatalf("%+v changed the failure kind: got %v want %v",
					o, res.Trace.Failure.Kind, base.Trace.Failure.Kind)
			}
			if res.VisitedBytes == 0 {
				t.Fatalf("%+v reported zero visited-set bytes", o)
			}
		}
	}
}

// Collapse compression is exact: on a verified program it must walk
// exactly the same set of states as the fingerprint table.
func TestCollapseExactStates(t *testing.T) {
	_, l, sk := lower(t, atomicSrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	exact, err := Check(l, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, err := Check(l, cand, Options{Compress: "collapse"})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.OK || !col.OK || col.States != exact.States {
		t.Fatalf("collapse states=%d, fingerprint table states=%d", col.States, exact.States)
	}
}

// debugHash recomputes the full Zobrist hash at every visited-set
// lookup and panics on any divergence from the incrementally maintained
// one — run the whole verdict space through it, sequential and
// parallel.
func TestIncrementalHashCrossCheck(t *testing.T) {
	debugHash = true
	defer func() { debugHash = false }()
	for _, src := range []string{racySrc, atomicSrc, deadlockSrc, symPairSrc} {
		_, l, sk := lower(t, src, desugar.Options{})
		cand := make(desugar.Candidate, len(sk.Holes))
		for _, o := range []Options{
			{},
			{NoPOR: true, NoLocalFusion: true},
			{Parallelism: 4},
		} {
			if _, err := Check(l, cand, o); err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
		}
	}
}

func TestUnknownCompressMode(t *testing.T) {
	_, l, sk := lower(t, atomicSrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	if _, err := Check(l, cand, Options{Compress: "gzip"}); err == nil {
		t.Fatal("expected an error for an unknown compression mode")
	}
}
