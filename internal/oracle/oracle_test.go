package oracle

import (
	"testing"

	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/parser"
	"psketch/internal/state"
)

func compile(t *testing.T, src, target string) (*desugar.Sketch, *state.Layout) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, target, desugar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	l, err := state.NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	return sk, l
}

// Concurrent mini-programs covering the verdict space: data race
// (assert failure), correct atomic version, blocking conditions, and a
// deadlock.
var miniPrograms = []struct {
	name, src string
	ok        bool
}{
	{"racy-increment", `
int g = 0;
harness void M() {
	fork (i; 2) {
		int t = g;
		t = t + 1;
		g = t;
	}
	assert g == 2;
}
`, false},
	{"atomic-increment", `
int g = 0;
harness void M() {
	fork (i; 2) {
		atomic { g = g + 1; }
	}
	assert g == 2;
}
`, true},
	{"blocking-handoff", `
int turn = 0;
int done = 0;
harness void M() {
	fork (i; 2) {
		atomic (turn == i) { turn = turn + 1; done = done + 1; }
	}
	assert done == 2;
}
`, true},
	{"deadlock", `
int a = 0;
harness void M() {
	fork (i; 2) {
		atomic (a == i + 5) { a = 0; }
	}
}
`, false},
}

// The naive checker and the optimized model checker must agree on
// every verdict, in every engine configuration.
func TestCheckAgreesWithMC(t *testing.T) {
	for _, tc := range miniPrograms {
		t.Run(tc.name, func(t *testing.T) {
			_, l := compile(t, tc.src, "M")
			v, err := CheckExhaustive(l, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v.OK != tc.ok {
				t.Fatalf("oracle verdict %v, want %v (failure: %v)", v.OK, tc.ok, v.Failure)
			}
			for _, cfg := range []mc.Options{
				{},
				{NoPOR: true},
				{NoPOR: true, NoLocalFusion: true},
				{Parallelism: 4},
				{Parallelism: 4, NoPOR: true},
			} {
				res, err := mc.Check(l, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.OK != v.OK {
					t.Fatalf("mc %+v verdict %v, oracle %v", cfg, res.OK, v.OK)
				}
			}
			if !v.OK && tc.name == "deadlock" && !v.Deadlock {
				t.Fatal("oracle missed the deadlock kind")
			}
		})
	}
}

// With every mc reduction off, both checkers walk the same normalized
// state graph, so the state counts of a full (OK) exploration must be
// identical — a much sharper check than the verdict alone.
func TestStatesMatchUnreducedMC(t *testing.T) {
	for _, tc := range miniPrograms {
		if !tc.ok {
			continue // failing runs stop early; counts are search-order dependent
		}
		_, l := compile(t, tc.src, "M")
		v, err := CheckExhaustive(l, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.Check(l, nil, mc.Options{NoPOR: true, NoLocalFusion: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.States != v.States {
			t.Fatalf("%s: mc explored %d states, oracle %d", tc.name, res.States, v.States)
		}
	}
}

// Hole sketches: the enumerative reference search and the CEGIS engine
// must agree on resolvability, and each other's winners must pass the
// other's checker.
func TestSearchAgreesWithCEGIS(t *testing.T) {
	cases := []struct {
		name, src string
		resolved  bool
	}{
		{"pick-atomic", `
int g = 0;
harness void M() {
	fork (i; 2) {
		if ({| true | false |}) {
			int t = g;
			t = t + 1;
			g = t;
		} else {
			atomic { g = g + 1; }
		}
	}
	assert g == 2;
}
`, true},
		{"no-solution", `
int g = 0;
harness void M() {
	fork (i; 2) {
		int t = g;
		t = t + ??(2);
		g = t;
	}
	assert g == 4;
}
`, false},
		{"constant-hole", `
int g = 0;
harness void M() {
	fork (i; 2) {
		atomic { g = g + ??(2); }
	}
	assert g == 6;
}
`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sk, l := compile(t, tc.src, "M")
			ref, err := SearchEnumerative(sk, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Resolved != tc.resolved {
				t.Fatalf("reference search resolved=%v, want %v", ref.Resolved, tc.resolved)
			}
			for _, par := range []int{1, 4} {
				syn, err := core.New(sk, core.Options{Parallelism: par, Proof: true})
				if err != nil {
					t.Fatal(err)
				}
				res, err := syn.Synthesize()
				if err != nil {
					t.Fatal(err)
				}
				if res.Resolved != ref.Resolved {
					t.Fatalf("parallelism %d: CEGIS resolved=%v, reference=%v", par, res.Resolved, ref.Resolved)
				}
				if res.Resolved {
					// The optimized engine's winner must pass the naive
					// checker too.
					v, err := CheckExhaustive(l, res.Candidate, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !v.OK {
						t.Fatalf("parallelism %d: CEGIS candidate %v fails the reference checker: %v", par, res.Candidate, v.Failure)
					}
				} else if res.Certificate == nil {
					t.Fatalf("parallelism %d: CEGIS NO without a certificate", par)
				}
			}
		})
	}
}
