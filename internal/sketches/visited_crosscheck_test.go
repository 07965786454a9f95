package sketches

import (
	"testing"

	"psketch/internal/desugar"
	"psketch/internal/mc"
	"psketch/internal/oracle"
)

// TestVisitedSetsCrossCheckAllSketches sweeps every benchmark's zero
// candidate through the model checker's three visited sets (the
// sequential fingerprint table, collapse compression, and the parallel
// search's striped set) and demands one verdict, replaying each
// counterexample on a concrete interpreter. The naive reference checker
// (which applies no reduction beyond normalization) must agree on that
// verdict too.
func TestVisitedSetsCrossCheckAllSketches(t *testing.T) {
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
