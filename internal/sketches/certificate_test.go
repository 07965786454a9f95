package sketches

import (
	"testing"

	"psketch/internal/core"
)

// Acceptance gate for the proof subsystem: with Options.Proof set,
// core replays every UNSAT verdict it commits to through the DRAT
// backward checker and turns a failed replay into an error — so
// running the Table 1 suite with proofs on, across the solo and the
// clause-sharing portfolio configurations, enforces that every such
// verdict carries a valid certificate.
func TestTable1UNSATVerdictsAreCertified(t *testing.T) {
	cases := []struct {
		b        *Benchmark
		test     string
		resolved bool
	}{
		{QueueE1(), "ed(ed|ed)", true},
		{Barrier1(), "N=2,B=2", true},
		{FineSet1(), "a(a|r)", true},
		{LazySet(), "ar(aa|rr)", true},
		{LazySet(), "ar(ar|ar)", false}, // the Table 1 "NO" row
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"solo", core.Options{Parallelism: 1, Proof: true}},
		{"portfolio-sharing", core.Options{Parallelism: 4, Proof: true}},
	}
	for _, tc := range cases {
		for _, cfg := range configs {
			t.Run(tc.b.Name+"/"+tc.test+"/"+cfg.name, func(t *testing.T) {
				sk := compile(t, tc.b, tc.test)
				syn, err := core.New(sk, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := syn.Synthesize()
				if err != nil {
					// This includes "DRAT replay ... failed": a verdict
					// whose proof does not check is a test failure, not
					// a tolerated degradation.
					t.Fatal(err)
				}
				if res.Resolved != tc.resolved {
					t.Fatalf("resolved=%v, want %v", res.Resolved, tc.resolved)
				}
				if !tc.resolved {
					if res.Certificate == nil {
						t.Fatal("definitive NO carries no certificate")
					}
					cs, err := res.Certificate.Verify()
					if err != nil {
						t.Fatalf("independent re-verification failed: %v", err)
					}
					t.Logf("NO certificate: %d premises, %d lemmas (%d checked, %d core)",
						res.Certificate.NumPremises(), cs.Lemmas, cs.Checked, cs.Core)
				}
				t.Logf("proof stats: lemmas=%d checked=%d core=%d replay=%v",
					res.Stats.ProofLemmas, res.Stats.ProofChecked, res.Stats.ProofCore, res.Stats.ProofCheck)
			})
		}
	}
}
