package sketches

import (
	"testing"

	"psketch/internal/core"
	"psketch/internal/cube"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/state"
)

// This file cross-checks cube-and-conquer CEGIS against the
// whole-space engine: on Table 1 the verdict must be identical under
// {cubes=1, cubes=4}, every resolved candidate must independently
// model check, and every cube-mode NO must come with a merged DRAT
// certificate that replayed.
// Candidates may differ between modes — several correct completions
// can exist — so the check is verdict + verification, not bitwise
// equality (except for the sequential pin below).

// verifyCandidate independently model checks a resolved completion.
func verifyCandidate(t *testing.T, sk *desugar.Sketch, cand desugar.Candidate, mode string) {
	t.Helper()
	prog, err := ir.Lower(sk)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := mc.Check(layout, cand, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mres.OK {
		t.Fatalf("%s: resolved candidate %v fails verification: %s", mode, cand, mres.Trace)
	}
}

func TestCubeCrossCheckAllSketches(t *testing.T) {
	for _, b := range All() {
		b := b
		if testing.Short() && b.Name != "queueE1" && b.Name != "barrier1" {
			continue
		}
		test := b.Tests[0]
		t.Run(b.Name+"/"+test, func(t *testing.T) {
			sk := compile(t, b, test)
			want := b.Resolvable[test]

			// cubes=1 takes the plain whole-space path.
			plain, err := cube.Synthesize(sk, cube.Options{
				Cubes: 1, Core: core.Options{Parallelism: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Resolved != want {
				t.Fatalf("cubes=1: resolved=%v, want %v", plain.Resolved, want)
			}
			if plain.Resolved {
				verifyCandidate(t, sk, plain.Candidate, "cubes=1")
			}

			// cubes=4 splits the candidate space; NO verdicts must
			// carry a replayed merged certificate.
			quad, err := cube.Synthesize(sk, cube.Options{
				Cubes: 4, Workers: 2, Proof: !want,
				Core: core.Options{Parallelism: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			if quad.Resolved != want {
				t.Fatalf("cubes=4: resolved=%v, want %v", quad.Resolved, want)
			}
			if quad.Resolved {
				verifyCandidate(t, sk, quad.Candidate, "cubes=4")
			} else {
				if quad.Certificate == nil || quad.Stats.ProofChecked == 0 {
					t.Fatalf("cubes=4 NO without a replayed merged certificate: cert=%v checked=%d",
						quad.Certificate != nil, quad.Stats.ProofChecked)
				}
				if len(quad.Bits) == 0 {
					t.Fatal("cube split chose no bits")
				}
			}
		})
	}
}

// cube.Synthesize with Cubes=1 at -j 1 must be byte-identical to the
// plain sequential engine: same verdict, same per-iteration
// trajectory, same candidate bits, no cube or pipeline machinery.
func TestCubeSequentialModeUnchanged(t *testing.T) {
	b := QueueE1()
	test := b.Tests[0]
	sk := compile(t, b, test)
	seq := core.Options{Parallelism: 1, NoPipeline: true, NoShareClauses: true}

	syn, err := core.New(sk, seq)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.Synthesize(sk, cube.Options{Cubes: 1, Core: seq})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved || !ref.Resolved {
		t.Fatal("queueE1 must resolve")
	}
	if res.Stats.Iterations != ref.Stats.Iterations ||
		res.Stats.SATConfl != ref.Stats.SATConfl ||
		res.Stats.MCStates != ref.Stats.MCStates {
		t.Fatalf("cubes=1 -j1 drifted from sequential: iters=%d confl=%d states=%d vs iters=%d confl=%d states=%d",
			res.Stats.Iterations, res.Stats.SATConfl, res.Stats.MCStates,
			ref.Stats.Iterations, ref.Stats.SATConfl, ref.Stats.MCStates)
	}
	if res.Stats.SpecSolves != 0 || res.Stats.SATExported != 0 || res.Stats.SATBusExported != 0 {
		t.Fatalf("cubes=1 -j1 ran parallel machinery: %+v", res.Stats)
	}
	for i := range ref.Candidate {
		if res.Candidate.Value(i) != ref.Candidate.Value(i) {
			t.Fatalf("cubes=1 -j1 candidate drifted: %v vs %v", res.Candidate, ref.Candidate)
		}
	}
	if len(res.PerCube) != 0 || res.Winner != 0 || len(res.Bits) != 0 {
		t.Fatalf("cubes=1 must not split: %+v", res)
	}
}
