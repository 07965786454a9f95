// End-to-end checks for the observability layer: a full queueE2
// synthesis traced into a journal must reconstruct the same per-phase
// wall clock that Stats reports (both are views over the same
// measurements), and heap sampling must stay off the hot path unless
// asked for.
package psketch

import (
	"bytes"
	"fmt"
	"testing"

	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/obs"
	"psketch/internal/parser"
	"psketch/internal/sketches"
)

func compileTest(t *testing.T, bm *sketches.Benchmark, test string) *desugar.Sketch {
	t.Helper()
	src, err := bm.Source(test)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "Main", bm.Opts(test))
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// phasePairs maps journal phase tags to the Stats field they must
// agree with.
func phasePairs(st core.Stats) map[string]int64 {
	return map[string]int64{
		obs.PhaseSSolve: int64(st.SSolve),
		obs.PhaseSModel: int64(st.SModel),
		obs.PhaseVSolve: int64(st.VSolve),
		obs.PhaseVModel: int64(st.VModel),
	}
}

// TestJournalStatsAgreement runs queueE2 with a journal attached and
// cross-checks the journal three ways against the returned Stats:
// per-phase span totals, the metrics trailer, and the per-iteration
// row count. The tolerance is 1% (the acceptance bar); in practice the
// two views are the same time.Since measurements and agree exactly.
func TestJournalStatsAgreement(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", par), func(t *testing.T) {
			sk := compileTest(t, sketches.QueueE2(), "ed(ed|ed)")
			var buf bytes.Buffer
			js := obs.NewJournalSink(&buf, map[string]string{"test": "agreement"})
			met := obs.NewMetrics()
			syn, err := core.New(sk, core.Options{
				Parallelism:     par,
				Trace:           obs.NewTracer(js),
				Metrics:         met,
				HeapSampleEvery: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := syn.Synthesize()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resolved {
				t.Fatal("queueE2 ed(ed|ed) must resolve")
			}
			js.WriteMetrics(met.Snapshot())
			if err := js.Close(); err != nil {
				t.Fatal(err)
			}
			j, err := obs.ReadJournalString(buf.String())
			if err != nil {
				t.Fatal(err)
			}

			totals := j.PhaseTotals()
			for phase, want := range phasePairs(res.Stats) {
				got := totals[phase]
				if want == 0 && got == 0 {
					continue
				}
				if drift := got - want; abs64(drift) > want/100 {
					t.Errorf("phase %s: journal %dns vs Stats %dns (drift %dns > 1%%)",
						phase, got, want, drift)
				}
				if mv := j.Metrics[obs.PhaseCounter(phase)]; mv != want {
					t.Errorf("phase %s: metrics trailer %dns vs Stats %dns", phase, mv, want)
				}
			}
			if got := len(obs.IterationRows(j)); got != res.Stats.Iterations {
				t.Errorf("journal has %d iteration spans, Stats.Iterations=%d", got, res.Stats.Iterations)
			}
			if mv := j.Metrics["cegis.iterations"]; mv != int64(res.Stats.Iterations) {
				t.Errorf("metrics iterations %d vs Stats %d", mv, res.Stats.Iterations)
			}
			if mv := j.Metrics["cegis.total_ns"]; mv != int64(res.Stats.Total) {
				t.Errorf("metrics total %dns vs Stats %dns", mv, int64(res.Stats.Total))
			}
			if mv := j.Metrics["mc.states"]; mv != int64(res.Stats.MCStates) {
				t.Errorf("metrics mc.states %d vs Stats %d", mv, res.Stats.MCStates)
			}
			roots := 0
			for _, sp := range j.Spans {
				if sp.Name == "cegis.synthesize" && sp.Parent == 0 {
					roots++
				}
			}
			if roots != 1 {
				t.Errorf("expected one cegis.synthesize root, got %d", roots)
			}
		})
	}
}

// TestStatsWithoutTracing pins the no-observability configuration:
// Stats must come out fully populated with a nil Tracer and nil
// Metrics (the registry is created internally).
func TestStatsWithoutTracing(t *testing.T) {
	sk := compileTest(t, sketches.QueueE2(), "ed(ed|ed)")
	syn, err := core.New(sk, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := syn.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved || res.Stats.Iterations == 0 || res.Stats.Total == 0 {
		t.Fatalf("stats not populated without tracing: %+v", res.Stats)
	}
	if res.Stats.MaxHeap == 0 {
		t.Fatal("final heap sample missing with HeapSampleEvery=0")
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
