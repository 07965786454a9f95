package core

import (
	"testing"

	"psketch/internal/desugar"
)

// A resolved sequential run's final verdict is "no violating input",
// i.e. UNSAT under the goal assumption — the result must carry a
// certificate that replays independently.
func TestProofSequentialResolved(t *testing.T) {
	syn := build(t, `
int spec(int x) { return 3 * x + 5; }
int f(int x) implements spec { return ??(2) * x + ??(3); }
`, "f", desugar.Options{IntWidth: 6}, Options{Proof: true})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("should resolve")
	}
	if res.Certificate == nil {
		t.Fatal("resolved sequential run carries no verification certificate")
	}
	if _, err := res.Certificate.Verify(); err != nil {
		t.Fatalf("certificate does not re-verify: %v", err)
	}
	if res.Stats.ProofCheck <= 0 {
		t.Fatalf("proof-check time not recorded: %+v", res.Stats)
	}
}

// An unresolvable sequential sketch exits on candidate-space
// exhaustion; the UNSAT must be certified.
func TestProofSequentialUnresolvable(t *testing.T) {
	syn := build(t, `
int spec(int x) { return x * x; }
int f(int x) implements spec { return x + ??(2); }
`, "f", desugar.Options{IntWidth: 5}, Options{Proof: true})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved {
		t.Fatal("x+c cannot implement x²")
	}
	if res.Certificate == nil {
		t.Fatal("definitive NO without a certificate")
	}
	if _, err := res.Certificate.Verify(); err != nil {
		t.Fatalf("exhaustion certificate does not re-verify: %v", err)
	}
}

// The concurrent engine's exhaustion exit must be certified under the
// full parallel configuration (a clause-sharing portfolio).
func TestProofConcurrentUnresolvable(t *testing.T) {
	src := `
int g = 0;
harness void M() {
	fork (i; 2) {
		int t = g;
		t = t + 1;
		g = t;
	}
	assert g == 2;
}
`
	for _, par := range []int{1, 4} {
		syn := build(t, src, "M", desugar.Options{}, Options{Proof: true, Parallelism: par})
		res, err := syn.Synthesize()
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Resolved {
			t.Fatalf("parallelism %d: racy increment resolved", par)
		}
		if res.Certificate == nil {
			t.Fatalf("parallelism %d: definitive NO without a certificate", par)
		}
		if _, err := res.Certificate.Verify(); err != nil {
			t.Fatalf("parallelism %d: certificate does not re-verify: %v", par, err)
		}
		// A hole-free space can be refuted by unit propagation alone, so
		// lemma counts may legitimately be zero; the replay itself must
		// still have run.
		if res.Stats.ProofCheck <= 0 {
			t.Fatalf("parallelism %d: proof replay time not recorded: %+v", par, res.Stats)
		}
	}
}

// A resolved concurrent run's final verdict is the model checker's, so
// no SAT certificate applies; the run must still complete cleanly with
// proof logging on.
func TestProofConcurrentResolved(t *testing.T) {
	syn := build(t, raceySketch, "M", desugar.Options{}, Options{Proof: true, Parallelism: 4})
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatal("should resolve")
	}
	if res.Certificate != nil {
		t.Fatal("concurrent resolution is model-checked, not SAT-certified")
	}
}
