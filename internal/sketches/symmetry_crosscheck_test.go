package sketches

import (
	"testing"

	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/oracle"
)

// This file cross-checks the orbit reduction and the compressed visited
// sets against the unreduced search and the naive reference checker,
// sketch by sketch: verdicts must be identical, and every
// counterexample found under a reduction must replay to the same
// failure on a concrete interpreter.

// TestSymmetryCrossCheckAllSketches sweeps every benchmark through the
// symmetry × compression configuration space with the zero candidate
// and demands one verdict, replaying each counterexample. The naive
// reference checker (which applies no reduction beyond normalization)
// must agree on that verdict too.
func TestSymmetryCrossCheckAllSketches(t *testing.T) {
	for _, b := range All() {
		b := b
		test := b.Tests[0]
		t.Run(b.Name+"/"+test, func(t *testing.T) {
			sk := compile(t, b, test)
			l := lowerBench(t, b, test)
			cand := make(desugar.Candidate, len(sk.Holes))
			v, err := oracle.CheckExhaustive(l, cand, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []mc.Options{
				{NoSymmetry: true},
				{},
				{Compress: "collapse"},
				{Parallelism: 4},
			} {
				res := mcCheck(t, l, cand, o)
				if res.OK != v.OK {
					t.Fatalf("%+v verdict %v, oracle %v", o, res.OK, v.OK)
				}
				if !res.OK {
					replayTrace(t, l, cand, res.Trace)
				}
			}
		})
	}
}

// TestSymmetryStateReduction checks the acceptance bar for the orbit
// reduction on a genuinely symmetric candidate. The dining-philosophers
// winner is asymmetric (its policy breaks the ring on one philosopher),
// so ir.Symmetry correctly reports no classes for it; forcing every
// policy generator to its `true` arm instead yields a rotation-
// symmetric — and deadlocking — candidate. The reduced search must
// reach the same verdict on strictly fewer states, and its
// counterexample must replay concretely.
func TestSymmetryStateReduction(t *testing.T) {
	b, test := DinPhilo(), "N=3,T=5"
	res, sk := synth(t, b, test, false)
	if !res.Resolved {
		t.Fatalf("%s %s did not resolve", b.Name, test)
	}
	prog, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	if cls := ir.Symmetry(prog, res.Candidate); len(cls) != 0 {
		t.Fatalf("winning candidate should be asymmetric, got %d classes", len(cls))
	}
	cand := append(res.Candidate[:0:0], res.Candidate...)
	for _, h := range sk.Holes {
		if h.Kind == desugar.HoleChoice && len(h.Label) > 2 && h.Label[:3] == "{|(" {
			cand[h.ID] = int64(h.Choices - 1)
		}
	}
	if cls := ir.Symmetry(prog, cand); len(cls) != 1 {
		t.Fatalf("forced candidate should form one ring class, got %d", len(cls))
	}

	// The forced candidate deadlocks, and a failing search stops at its
	// first counterexample — a huge trace budget forces both searches to
	// sweep the whole graph so the state counts are comparable.
	sweep := 1 << 20
	l := lowerBench(t, b, test)
	full := mcCheck(t, l, cand, mc.Options{NoSymmetry: true, MaxTraces: sweep})
	sym := mcCheck(t, l, cand, mc.Options{MaxTraces: sweep})
	if sym.OK != full.OK {
		t.Fatalf("orbit reduction changed the verdict: sym=%v full=%v", sym.OK, full.OK)
	}
	if sym.SymClasses != 1 {
		t.Fatalf("expected 1 symmetry class in the run, got %d", sym.SymClasses)
	}
	t.Logf("states: NoSymmetry=%d sym=%d (%.1f%%), orbit hits=%d",
		full.States, sym.States, 100*float64(sym.States)/float64(full.States), sym.OrbitHits)
	if sym.States >= full.States {
		t.Errorf("orbit reduction does not reduce states: %d >= %d", sym.States, full.States)
	}
	if sym.OrbitHits == 0 {
		t.Error("orbit reduction reported no orbit hits on a symmetric sweep")
	}
	for _, tr := range sym.Traces {
		replayTrace(t, l, cand, tr)
	}

	// The reduction must also compose with collapse compression, which
	// is exact: same verdict on exactly the same canonical states.
	col := mcCheck(t, l, cand, mc.Options{Compress: "collapse", MaxTraces: sweep})
	if col.OK != full.OK || col.States != sym.States {
		t.Fatalf("collapse over orbits: OK=%v states=%d, want OK=%v states=%d",
			col.OK, col.States, full.OK, sym.States)
	}
}
