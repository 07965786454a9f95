package sketches

import (
	"testing"

	"psketch/internal/circuit"
	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/printer"
	"psketch/internal/project"
	"psketch/internal/state"
	"psketch/internal/sym"
)

func runBench(t *testing.T, b *Benchmark, test string, wantResolved bool, show ...string) {
	t.Helper()
	res, sk := synth(t, b, test, true)
	if res.Resolved != wantResolved {
		t.Fatalf("%s %s: resolved=%v, want %v", b.Name, test, res.Resolved, wantResolved)
	}
	for _, fn := range show {
		code, err := printer.Resolve(sk, res.Candidate, fn)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("resolved %s:\n%s", fn, code)
	}
	t.Logf("%s %s: iters=%d states=%d Ssolve=%v Smodel=%v Vsolve=%v total=%v",
		b.Name, test, res.Stats.Iterations, res.Stats.MCStates,
		res.Stats.SSolve, res.Stats.SModel, res.Stats.VSolve, res.Stats.Total)
}

func TestDinPhiloN3T2(t *testing.T) {
	b := DinPhilo()
	runBench(t, b, "N=3,T=2", true, "phil")
}

func TestBarrier1N2B2(t *testing.T) {
	runBench(t, Barrier1(), "N=2,B=2", true, "next")
}

func TestFineSet1Small(t *testing.T) {
	runBench(t, FineSet1(), "a(a|r)", true, "find")
}

func TestLazySetAARR(t *testing.T) {
	runBench(t, LazySet(), "ar(aa|rr)", true, "rem")
}

func TestLazySetARAR(t *testing.T) {
	runBench(t, LazySet(), "ar(ar|ar)", false)
}

// The lazyset NO verdict must be sound: exhaustively model check every
// candidate in the space and confirm none passes. This also
// cross-checks that the trace projections never eliminated a correct
// candidate.
func TestLazySetARARExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}
	sk := compile(t, LazySet(), "ar(ar|ar)")
	prog, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	dims := make([]int64, len(sk.Holes))
	for i, h := range sk.Holes {
		if h.Kind == desugar.HoleChoice {
			dims[i] = int64(h.Choices)
		} else {
			dims[i] = 1 << uint(h.Bits)
		}
	}
	cand := make(desugar.Candidate, len(dims))
	total, passed := 0, 0
	var rec func(i int)
	rec = func(i int) {
		if passed > 0 {
			return
		}
		if i == len(dims) {
			total++
			res, err := mc.Check(layout, cand, mc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.OK {
				passed++
				t.Errorf("candidate %v passes but CEGIS said NO", cand)
			}
			return
		}
		for v := int64(0); v < dims[i]; v++ {
			cand[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	t.Logf("exhaustively refuted %d candidates", total)
}

// TestPaperGrid runs the full Figure 9 test grid (long).
func TestPaperGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 9 grid")
	}
	for _, b := range All() {
		for _, test := range b.Tests {
			b, test := b, test
			t.Run(b.Name+"/"+test, func(t *testing.T) {
				res, _ := synth(t, b, test, false)
				want := b.Resolvable[test]
				if res.Resolved != want {
					t.Errorf("resolved=%v want %v", res.Resolved, want)
				}
				t.Logf("%s %s: resolved=%v iters=%d states=%d total=%v",
					b.Name, test, res.Resolved, res.Stats.Iterations, res.Stats.MCStates, res.Stats.Total)
			})
		}
	}
}

// N=5 dining philosophers needs a larger verifier budget, like the
// paper's 746-second SPIN run for the same test.
func TestDinPhiloN5(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	sk := compile(t, DinPhilo(), "N=5,T=3")
	syn, err := core.New(sk, core.Options{MCMaxStates: 60_000_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("dinphilo N=5,T=3 should resolve")
	}
	t.Logf("iters=%d states=%d total=%v", res.Stats.Iterations, res.Stats.MCStates, res.Stats.Total)
}

func TestQueueDE2(t *testing.T) {
	if testing.Short() {
		t.Skip("10^8 candidate space")
	}
	res, sk := synth(t, QueueDE2(), "ed(ed|ed)", false)
	if !res.Resolved {
		t.Fatal("queueDE2 should resolve")
	}
	code, _ := printer.Resolve(sk, res.Candidate, "Dequeue")
	t.Logf("resolved Dequeue:\n%s", code)
	t.Logf("iters=%d states=%d total=%v", res.Stats.Iterations, res.Stats.MCStates, res.Stats.Total)
}

func TestFineSet2Grid(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res, sk := synth(t, FineSet2(), "ar(ar|ar)", false)
	if !res.Resolved {
		t.Fatal("fineset2 should resolve")
	}
	code, _ := printer.Resolve(sk, res.Candidate, "find")
	t.Logf("resolved find:\n%s", code)
	t.Logf("iters=%d total=%v", res.Stats.Iterations, res.Stats.Total)
}

// The lock-free stack extension (§4.1's CAS idiom): the sketched Push
// must resolve to link-then-CAS(top, old, n).
func TestTreiberSynthesize(t *testing.T) {
	res, sk := synth(t, Treiber(), "ed(ed|ed)", true)
	if !res.Resolved {
		t.Fatal("treiber should resolve")
	}
	code, err := printer.Resolve(sk, res.Candidate, "Push")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("resolved Push:\n%s", code)
	t.Logf("iters=%d states=%d total=%v", res.Stats.Iterations, res.Stats.MCStates, res.Stats.Total)
}

// Soundness of trace projection across a whole space: project every
// failing queueE1 candidate's counterexample and check that the
// verified candidate ([0 0], the Figure 2 implementation) survives
// every constraint, while each failing candidate is refuted by its own.
func TestProjectionSoundnessQueueE1(t *testing.T) {
	sk := compile(t, QueueE1(), "ed(ed|ed)")
	prog, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	b := circuit.NewBuilder()
	holes := sym.HoleInputs(b, sk)
	assign := func(c desugar.Candidate) map[circuit.Lit]bool {
		m := map[circuit.Lit]bool{}
		for i, w := range holes {
			for j, lit := range w {
				m[lit] = (c.Value(i)>>uint(j))&1 == 1
			}
		}
		return m
	}
	good := desugar.Candidate{0, 0}
	for c0 := int64(0); c0 < 2; c0++ {
		for c1 := int64(0); c1 < 2; c1++ {
			cand := desugar.Candidate{c0, c1}
			res, err := mc.Check(layout, cand, mc.Options{MaxTraces: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.OK {
				continue
			}
			for _, tr := range res.Traces {
				fail, err := project.Encode(b, layout, holes, project.Build(prog, tr))
				if err != nil {
					t.Fatal(err)
				}
				if !b.Eval(assign(cand), fail) {
					t.Errorf("candidate %v not refuted by its own trace", cand)
				}
				if b.Eval(assign(good), fail) {
					t.Errorf("projection of %v's trace wrongly eliminates the verified candidate", cand)
				}
			}
		}
	}
}

// The full lazy list (both ops' locks sketched): the concurrent ar|ar
// workload must be resolvable with two locks — the contrast to the
// single-lock NO. Uses multi-trace learning to keep the run short.
// The run grows to ~10M SAT clauses; each SAT portfolio worker holds
// its own copy, so the verdict is taken at Parallelism 1 (~1.9 GiB
// peak RSS), where one copy exists.
func TestLazyFullARAR(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sk := compile(t, LazyFull(), "(ar|ar)")
	syn, err := core.New(sk, core.Options{TracesPerIteration: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("two-lock remove must be synthesizable for (ar|ar)")
	}
	code, err := printer.Resolve(sk, res.Candidate, "remTry")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("resolved remTry:\n%s", code)
	t.Logf("iters=%d total=%v", res.Stats.Iterations, res.Stats.Total)
}

// End-to-end POR cross-check: whatever CEGIS synthesizes must also
// verify under the unreduced model checker (no eager local steps).
func TestSynthesizedVerifiesUnreduced(t *testing.T) {
	for _, tc := range []struct {
		b    *Benchmark
		test string
	}{
		{QueueE1(), "ed(ed|ed)"},
		{Barrier1(), "N=2,B=2"},
		{Treiber(), "ed(ed|ed)"},
	} {
		res, sk := synth(t, tc.b, tc.test, false)
		if !res.Resolved {
			t.Fatalf("%s %s did not resolve", tc.b.Name, tc.test)
		}
		prog, err := ir.Lower(sk)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := state.NewLayout(prog)
		if err != nil {
			t.Fatal(err)
		}
		mres, err := mc.Check(layout, res.Candidate, mc.Options{NoLocalFusion: true})
		if err != nil {
			t.Fatal(err)
		}
		if !mres.OK {
			t.Fatalf("%s %s: synthesized candidate fails the unreduced checker: %s",
				tc.b.Name, tc.test, mres.Trace)
		}
	}
}
