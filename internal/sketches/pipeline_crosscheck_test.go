package sketches

import (
	"testing"

	"psketch/internal/core"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/state"
)

// TestPipelineCrossCheckAllSketches cross-checks the -j 2 engine (a
// two-worker clause-sharing portfolio plus the two-way sharded model
// checker) sketch by sketch, at an explicit Parallelism so that it runs
// on a one-CPU host too: on every Table 1 benchmark the verdict must be
// the expected one, and every resolved candidate must independently
// model check. Candidates themselves may differ from the -j 1 engine's —
// several correct completions can exist — so the check is verdict plus
// verification, not bitwise equality.
func TestPipelineCrossCheckAllSketches(t *testing.T) {
	for _, b := range All() {
		b := b
		if testing.Short() && b.Name != "queueE1" && b.Name != "barrier1" {
			continue
		}
		test := b.Tests[0]
		t.Run(b.Name+"/"+test, func(t *testing.T) {
			sk := compile(t, b, test)
			want := b.Resolvable[test]
			syn, err := core.New(sk, core.Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := syn.Synthesize()
			if err != nil {
				t.Fatal(err)
			}
			if res.Resolved != want {
				t.Fatalf("resolved=%v, want %v", res.Resolved, want)
			}
			if !res.Resolved {
				return
			}
			prog, err := ir.Lower(sk)
			if err != nil {
				t.Fatal(err)
			}
			layout, err := state.NewLayout(prog)
			if err != nil {
				t.Fatal(err)
			}
			mres, err := mc.Check(layout, res.Candidate, mc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !mres.OK {
				t.Fatalf("resolved candidate %v fails verification: %s", res.Candidate, mres.Trace)
			}
		})
	}
}
