// Benchmarks regenerating the paper's evaluation (one per table/figure;
// see DESIGN.md's per-experiment index):
//
//   - BenchmarkTable1 — candidate-space counting for all ten sketches;
//   - BenchmarkFig_TransSSE — the §3 sequential shufps transpose;
//   - BenchmarkAblationReorder* — the §7.2 quadratic vs insertion
//     reorder encodings on the Figure 1 queue sketch;
//   - BenchmarkMC_QueueE1 — one full verifier pass (all interleavings);
//   - BenchmarkMC_Allocs/<bench>/j* — allocation-tracked verifier
//     passes (allocs/op + states/sec, the hot-path overhaul metrics);
//   - BenchmarkAblationLocalFusion*/AblationFootprintPOR* — the two
//     state-space reductions on vs off;
//   - BenchmarkProjection_QueueE2 — one trace projection + encoding;
//   - BenchmarkMC_CexLateShard/j* — parallel verifier counterexample
//     search where the failing schedule hides behind large benign
//     first-event subtrees (the -j N win; see EXPERIMENTS.md);
//   - BenchmarkMC_Exhaustive_QueueE1/j* — sharded exhaustive
//     verification vs the sequential DFS;
//   - BenchmarkSynthPortfolio_QueueE2/j* — full CEGIS with the SAT
//     portfolio and parallel verifier on vs off.
//
// Figure 9 has no benchmark here: TestPaperGrid (internal/sketches)
// checks every row's verdict at the default -j, TestFig9Counters
// (internal/bench) pins every row's exact -j 1 work counters, and
// pskbench -fig9 times the rows.
//
// Absolute times are not expected to match the paper's 2008 testbed;
// the shape (who resolves, iteration counts, relative cost of the
// phases) is the reproduction target. Run with:
//
//	go test -bench=. -benchmem
package psketch

import (
	"fmt"
	"io"
	"testing"

	"psketch/internal/circuit"
	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/mc"
	"psketch/internal/obs"
	"psketch/internal/parser"
	"psketch/internal/project"
	"psketch/internal/sat"
	"psketch/internal/sketches"
	"psketch/internal/state"
	"psketch/internal/sym"
)

func compileBench(b *testing.B, bm *sketches.Benchmark, test string) *desugar.Sketch {
	b.Helper()
	src, err := bm.Source(test)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "Main", bm.Opts(test))
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

// BenchmarkTable1 measures compiling + counting all ten sketches
// (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bm := range sketches.All() {
			sk := compileBench(b, bm, bm.Tests[0])
			if sk.Count.Sign() <= 0 {
				b.Fatalf("%s: bad count", bm.Name)
			}
		}
	}
}

// BenchmarkFig_TransSSE is the §3 sequential example (2×2 variant; the
// 4×4 takes about a minute and runs in the examples and long tests).
func BenchmarkFig_TransSSE(b *testing.B) {
	src := sketches.TransposeSource(2)
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "trans_sse", sketches.TransposeOpts(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn, err := core.New(sk, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := syn.Synthesize()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Resolved {
			b.Fatal("did not resolve")
		}
	}
}

// ablation: the two reorder encodings of §7.2 on the Figure 1 sketch.
func benchEncoding(b *testing.B, enc desugar.Encoding) {
	bm := sketches.QueueE2()
	src, err := bm.Source("ed(ed|ed)")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	opts := bm.Opts("ed(ed|ed)")
	opts.Encoding = enc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk, err := desugar.Desugar(prog, "Main", opts)
		if err != nil {
			b.Fatal(err)
		}
		syn, err := core.New(sk, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := syn.Synthesize()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Resolved {
			b.Fatal("did not resolve")
		}
		b.ReportMetric(float64(res.Stats.Iterations), "iters")
	}
}

func BenchmarkAblationReorderInsertion(b *testing.B) { benchEncoding(b, desugar.EncodeInsertion) }
func BenchmarkAblationReorderQuadratic(b *testing.B) { benchEncoding(b, desugar.EncodeQuadratic) }

// BenchmarkMC_QueueE1 measures one exhaustive verifier pass (the Vsolve
// column) on the correct queueE1 candidate.
func BenchmarkMC_QueueE1(b *testing.B) {
	sk := compileBench(b, sketches.QueueE1(), "ed(ed|ed)")
	prog, err := ir.Lower(sk)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(layout, desugar.Candidate{0, 0}, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatal("expected OK")
		}
	}
}

// BenchmarkProjection_QueueE2 measures one trace projection + symbolic
// encoding (the Smodel column) for a failing queueE2 candidate.
func BenchmarkProjection_QueueE2(b *testing.B) {
	sk := compileBench(b, sketches.QueueE2(), "ed(ed|ed)")
	prog, err := ir.Lower(sk)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		b.Fatal(err)
	}
	bad := make(desugar.Candidate, len(sk.Holes))
	res, err := mc.Check(layout, bad, mc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if res.OK {
		b.Fatal("expected a counterexample")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := circuit.NewBuilder()
		holes := sym.HoleInputs(cb, sk)
		entries := project.Build(prog, res.Trace)
		if _, err := project.Encode(cb, layout, holes, entries); err != nil {
			b.Fatal(err)
		}
	}
}

// serialAdder inserts ToSAT's clause batch clause by clause — the
// pre-batching baseline.
type serialAdder struct{ sat.Adder }

func (s serialAdder) AddClauses(lits []sat.Lit, ends []int) bool {
	ok, start := true, 0
	for _, end := range ends {
		ok = s.AddClause(lits[start:end]...) && ok
		start = end
	}
	return ok
}

// BenchmarkProjectionInsert_QueueE2 measures pushing one projected
// trace constraint into a 4-worker SAT portfolio — the per-iteration
// cost on the CEGIS critical path. The batch case hands the whole
// Tseitin CNF to Portfolio.AddClauses in one worker-major broadcast;
// the serial case inserts clause by clause through the same portfolio.
func BenchmarkProjectionInsert_QueueE2(b *testing.B) {
	sk := compileBench(b, sketches.QueueE2(), "ed(ed|ed)")
	prog, err := ir.Lower(sk)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		b.Fatal(err)
	}
	bad := make(desugar.Candidate, len(sk.Holes))
	res, err := mc.Check(layout, bad, mc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if res.OK {
		b.Fatal("expected a counterexample")
	}
	cb := circuit.NewBuilder()
	holes := sym.HoleInputs(cb, sk)
	entries := project.Build(prog, res.Trace)
	fail, err := project.Encode(cb, layout, holes, entries)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, wrap func(*sat.Portfolio) sat.Adder) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := sat.NewPortfolio(4)
			s := wrap(p)
			lit := cb.ToSAT(s, circuit.NewVarMap(), fail.Not())
			if !s.AddClause(lit) {
				b.Fatal("projection clause unsatisfiable on its own")
			}
		}
	}
	b.Run("batch", func(b *testing.B) {
		run(b, func(p *sat.Portfolio) sat.Adder { return p })
	})
	b.Run("serial", func(b *testing.B) {
		run(b, func(p *sat.Portfolio) sat.Adder { return serialAdder{p} })
	})
}

// ablation: the model checker's two reductions on one full queueE1
// verification — local fusion (eager thread-local steps) and the
// footprint-based partial-order reduction (persistent + sleep sets).
func benchReduction(b *testing.B, opts mc.Options) {
	sk := compileBench(b, sketches.QueueE1(), "ed(ed|ed)")
	prog, err := ir.Lower(sk)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(layout, desugar.Candidate{0, 0}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatal("expected OK")
		}
		b.ReportMetric(float64(res.States), "states")
	}
}

func BenchmarkAblationLocalFusionOn(b *testing.B) { benchReduction(b, mc.Options{}) }
func BenchmarkAblationLocalFusionOff(b *testing.B) {
	benchReduction(b, mc.Options{NoLocalFusion: true})
}
func BenchmarkAblationFootprintPOROn(b *testing.B) { benchReduction(b, mc.Options{}) }
func BenchmarkAblationFootprintPOROff(b *testing.B) {
	benchReduction(b, mc.Options{NoPOR: true})
}

// benchMCAlloc is the allocation-tracked model-checker microbenchmark:
// one exhaustive verifier pass per iteration on a verified candidate,
// reporting allocs/op (the hot-path overhaul target) and a sustained
// states/sec throughput metric.
func benchMCAlloc(b *testing.B, bm *sketches.Benchmark, test string, cand desugar.Candidate, opts mc.Options) {
	b.Helper()
	sk := compileBench(b, bm, test)
	if cand == nil {
		syn, err := core.New(sk, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := syn.Synthesize()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Resolved {
			b.Fatalf("%s %s did not resolve", bm.Name, test)
		}
		cand = res.Candidate
	}
	prog, err := ir.Lower(sk)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(layout, cand, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatal("expected OK")
		}
		states += res.States
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(states)/secs, "states/sec")
	}
}

// BenchmarkMC_Allocs tracks the verifier's allocation behaviour on two
// paper sketches, sequentially and sharded (see EXPERIMENTS.md for the
// before/after history of the hot-path overhaul).
func BenchmarkMC_Allocs(b *testing.B) {
	for _, j := range []int{1, 4} {
		opts := mc.Options{Parallelism: j}
		b.Run(fmt.Sprintf("queueE1/j%d", j), func(b *testing.B) {
			benchMCAlloc(b, sketches.QueueE1(), "ed(ed|ed)", desugar.Candidate{0, 0}, opts)
		})
		b.Run(fmt.Sprintf("barrier1/j%d", j), func(b *testing.B) {
			benchMCAlloc(b, sketches.Barrier1(), "N=2,B=2", nil, opts)
		})
	}
}

// lateShardSrc is a program whose only failing schedules start with
// thread 2 (it reads flag before thread 0's first step sets it), while
// threads 0 and 1 generate large, benign, value-dependent state spaces.
// The sequential DFS must exhaust tens of thousands of benign states
// before it reaches a failing schedule; the sharded search hands thread
// 2's subtree to its own worker, which finds the counterexample almost
// immediately and cancels the rest.
const lateShardSrc = `
int flag = 0;
int a = 0;
int b = 1;
harness void Main() {
	fork (i; 3) {
		if (i == 0) {
			flag = 1;
			a = a + b; a = a + b; a = a + b; a = a + b;
			a = a + b; a = a + b; a = a + b; a = a + b;
			a = a + b; a = a + b; a = a + b; a = a + b;
			a = a + b; a = a + b; a = a + b; a = a + b;
			a = a + b; a = a + b; a = a + b; a = a + b;
			a = a + b; a = a + b; a = a + b; a = a + b;
		}
		if (i == 1) {
			b = b + b; b = b + 1; b = b + b; b = b + 1;
			b = b + b; b = b + 1; b = b + b; b = b + 1;
			b = b + b; b = b + 1; b = b + b; b = b + 1;
			b = b + b; b = b + 1; b = b + b; b = b + 1;
			b = b + b; b = b + 1; b = b + b; b = b + 1;
			b = b + b; b = b + 1; b = b + b; b = b + 1;
		}
		if (i == 2) {
			int x = flag;
			assert x == 1;
		}
	}
}
`

func lateShardLayout(b *testing.B) *state.Layout {
	b.Helper()
	prog, err := parser.Parse(lateShardSrc)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := desugar.Desugar(prog, "Main", desugar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := ir.Lower(sk)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := state.NewLayout(p)
	if err != nil {
		b.Fatal(err)
	}
	return layout
}

// BenchmarkMC_CexLateShard measures the counterexample search of the
// parallel verifier against the sequential DFS when the failing
// schedule lives in a late first-event shard (the headline -j N case;
// measured numbers are recorded in EXPERIMENTS.md).
func BenchmarkMC_CexLateShard(b *testing.B) {
	layout := lateShardLayout(b)
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mc.Check(layout, desugar.Candidate{}, mc.Options{Parallelism: j})
				if err != nil {
					b.Fatal(err)
				}
				if res.OK {
					b.Fatal("expected a counterexample")
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// BenchmarkMC_Exhaustive_QueueE1 measures a full (no-counterexample)
// verification pass sequentially and sharded: with nothing to cancel,
// this exposes the sharding overhead rather than a win, which is the
// honest baseline for -j N on verified candidates.
func BenchmarkMC_Exhaustive_QueueE1(b *testing.B) {
	sk := compileBench(b, sketches.QueueE1(), "ed(ed|ed)")
	prog, err := ir.Lower(sk)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := state.NewLayout(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mc.Check(layout, desugar.Candidate{0, 0}, mc.Options{Parallelism: j})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK {
					b.Fatal("expected OK")
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// BenchmarkSynthPortfolio_QueueE2 runs the full CEGIS loop on the
// Figure 1 queue sketch with the parallel pipeline off (-j 1, the
// deterministic paper configuration) and on (-j 4: SAT portfolio +
// sharded verifier).
func BenchmarkSynthPortfolio_QueueE2(b *testing.B) {
	sk := compileBench(b, sketches.QueueE2(), "ed(ed|ed)")
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				syn, err := core.New(sk, core.Options{Parallelism: j})
				if err != nil {
					b.Fatal(err)
				}
				res, err := syn.Synthesize()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Resolved {
					b.Fatal("did not resolve")
				}
				b.ReportMetric(float64(res.Stats.Iterations), "iters")
			}
		})
	}
}

// BenchmarkHeapSampling measures the cost of the heap high-water-mark
// sampling cadence on the full queueE2 CEGIS loop. Every sample is a
// runtime.ReadMemStats, which stops the world — the loop used to pay
// it unconditionally each iteration; it is now behind the
// HeapSampleEvery knob (0 = one final sample, the library default;
// 1 = the historical per-iteration behaviour pskbench keeps for
// baseline comparability).
func BenchmarkHeapSampling(b *testing.B) {
	sk := compileBench(b, sketches.QueueE2(), "ed(ed|ed)")
	for _, every := range []int{0, 1} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				syn, err := core.New(sk, core.Options{Parallelism: 1, HeapSampleEvery: every})
				if err != nil {
					b.Fatal(err)
				}
				res, err := syn.Synthesize()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Resolved || res.Stats.MaxHeap == 0 {
					b.Fatalf("resolved=%v heap=%d", res.Resolved, res.Stats.MaxHeap)
				}
			}
		})
	}
}

// BenchmarkJournalOverhead_QueueE2 measures the full CEGIS loop with
// tracing off (nil tracer) vs journaling to an in-memory sink — the
// EXPERIMENTS.md "<3% with a journal attached" number.
func BenchmarkJournalOverhead_QueueE2(b *testing.B) {
	sk := compileBench(b, sketches.QueueE2(), "ed(ed|ed)")
	run := func(b *testing.B, trace bool) {
		for i := 0; i < b.N; i++ {
			opts := core.Options{Parallelism: 1}
			var js *obs.JournalSink
			if trace {
				js = obs.NewJournalSink(io.Discard, nil)
				opts.Trace = obs.NewTracer(js)
				opts.Metrics = obs.NewMetrics()
			}
			syn, err := core.New(sk, opts)
			if err != nil {
				b.Fatal(err)
			}
			res, err := syn.Synthesize()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Resolved {
				b.Fatal("did not resolve")
			}
			if js != nil {
				js.WriteMetrics(opts.Metrics.Snapshot())
				if err := js.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("journal", func(b *testing.B) { run(b, true) })
}
