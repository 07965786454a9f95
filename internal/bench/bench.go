package bench

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"psketch/internal/core"
	"psketch/internal/desugar"
	"psketch/internal/emit"
	"psketch/internal/obs"
	"psketch/internal/parser"
	"psketch/internal/sat"
	"psketch/internal/sketches"
)

// Row is one measured Figure 9 row.
type Row struct {
	Bench, Test string
	Resolved    bool
	Expected    bool
	Itns        int
	Total       time.Duration
	SSolve      time.Duration
	SModel      time.Duration
	VSolve      time.Duration
	VModel      time.Duration
	MemMiB      float64
	MCStates    int
	MCTrans     int
	// MCVisitedBytes is the peak visited-set footprint of any single
	// check.
	MCVisitedBytes uint64
	SATVars        int
	SATClauses     int
	SATConfl       int64
	LogC           float64
	Err            error
	// Per-worker columns (empty at parallelism 1): portfolio wins and
	// conflicts per SAT worker, states expanded per verifier worker.
	Parallelism    int
	SATWorkers     []sat.WorkerStats
	MCWorkerStates []int
	// Clause-sharing and projection-cache totals.
	SATExported int64
	SATImported int64
	ProjHits    int64
	ProjMisses  int64
	ProjSaved   int64
	// Proof columns (zero unless Options.Proof): lemmas recorded,
	// lemmas RUP-checked, and total replay wall time.
	ProofLemmas  int
	ProofChecked int
	ProofCheck   time.Duration
	// Throughput is the resolved candidate's measured ops/sec from its
	// emitted Go load harness (zero unless Options.RankEmitted).
	Throughput float64
}

// Options configure a benchmark sweep.
type Options struct {
	// Filter restricts benchmarks by name substring ("" = all).
	Filter string
	// Timeout bounds each test's synthesis run (0 = none).
	Timeout time.Duration
	// MCMaxStates overrides the verifier budget (0 = default; the
	// dinphilo N=5 row needs ~60M, like the paper's 746 s SPIN run).
	MCMaxStates int
	// Verbose streams per-iteration progress.
	Verbose func(format string, args ...any)
	// IncludeExtras adds the extension benchmarks (beyond Table 1) to
	// the sweep.
	IncludeExtras bool
	// TracesPerIteration forwards the multi-trace learning extension
	// (default 1 = the paper's single-counterexample loop).
	TracesPerIteration int
	// Parallelism sizes the clause-sharing SAT portfolio and the
	// verifier worker pool (0 = core's default, GOMAXPROCS; 1 = the
	// deterministic engine whose numbers the paper comparison is
	// calibrated against).
	Parallelism int
	// Proof replays every committed UNSAT verdict through the DRAT
	// backward checker (overhead measurement; off by default).
	Proof bool
	// Trace forwards the tracer into every run: each RunOne wraps its
	// synthesis in a "bench.run" span (attrs: bench, test) and the
	// CEGIS spans nest under it. Nil disables.
	Trace *obs.Tracer
	// Metrics, when set, receives every row's counters: each RunOne
	// counts into a registry of its own, so the row's numbers are its
	// own work, and folds it into Metrics when the row ends (see
	// foldMetrics).
	Metrics *obs.Metrics
	// HeapSampleEvery forwards core's heap-sampling cadence. pskbench
	// defaults it to 1, so that MemMiB also sees peaks inside the CEGIS
	// loop; 0 samples once per run.
	HeapSampleEvery int
	// RankEmitted, after each resolved test, lowers the winning
	// candidate to a Go package (internal/emit), builds it, runs its
	// generated load harness, and records the measured ops/sec in
	// Row.Throughput. Needs the go tool on PATH; when it is missing the
	// column stays zero and the sweep goes on.
	RankEmitted bool
}

// logBig computes log10 of a big integer.
func logBig(x *big.Int) float64 {
	if x.Sign() <= 0 {
		return 0
	}
	m := new(big.Float)
	exp := new(big.Float).SetInt(x).MantExp(m)
	mf, _ := m.Float64()
	return math.Log10(mf) + float64(exp)*math.Log10(2)
}

// RunOne compiles and synthesizes one benchmark/test pair.
func RunOne(b *sketches.Benchmark, test string, opts Options) Row {
	row := Row{Bench: b.Name, Test: test, Expected: b.Resolvable[test]}
	src, err := b.Source(test)
	if err != nil {
		row.Err = err
		return row
	}
	prog, err := parser.Parse(src)
	if err != nil {
		row.Err = err
		return row
	}
	sk, err := desugar.Desugar(prog, "Main", b.Opts(test))
	if err != nil {
		row.Err = err
		return row
	}
	row.LogC = logBig(sk.Count)

	maxStates := opts.MCMaxStates
	if b.Name == "dinphilo" && strings.HasPrefix(test, "N=5") && maxStates == 0 {
		maxStates = 60_000_000
	}
	var cancel atomic.Bool
	rsp := opts.Trace.Start(obs.SpanBenchRun, 0)
	endRun := func(status string) {
		if rsp.Active() {
			rsp.End(obs.Str("bench", b.Name), obs.Str("test", test), obs.Str("status", status))
		}
	}
	met := obs.NewMetrics()
	defer foldMetrics(opts.Metrics, met)
	syn, err := core.New(sk, core.Options{
		MCMaxStates:        maxStates,
		Verbose:            opts.Verbose,
		TracesPerIteration: opts.TracesPerIteration,
		Parallelism:        opts.Parallelism,
		Proof:              opts.Proof,
		Cancel:             &cancel,
		Trace:              opts.Trace,
		TraceParent:        rsp.ID(),
		Metrics:            met,
		HeapSampleEvery:    opts.HeapSampleEvery,
	})
	if err != nil {
		endRun("compile_error")
		row.Err = err
		return row
	}
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, e := syn.Synthesize()
		ch <- outcome{res: r, err: e}
	}()
	var o outcome
	if opts.Timeout > 0 {
		select {
		case o = <-ch:
		case <-time.After(opts.Timeout):
			// Tear the run down cooperatively and join it, so a timed-out
			// benchmark does not leave solver/verifier goroutines running
			// under the next one.
			cancel.Store(true)
			<-ch
			endRun("timeout")
			row.Err = fmt.Errorf("timeout after %v", opts.Timeout)
			return row
		}
	} else {
		o = <-ch
	}
	if o.err != nil {
		endRun("error")
		row.Err = o.err
		return row
	}
	endRun("done")
	res := o.res
	row.Resolved = res.Resolved
	row.Itns = res.Stats.Iterations
	row.Total = res.Stats.Total
	row.SSolve = res.Stats.SSolve
	row.SModel = res.Stats.SModel
	row.VSolve = res.Stats.VSolve
	row.VModel = res.Stats.VModel
	row.MemMiB = float64(res.Stats.MaxHeap) / (1 << 20)
	row.MCStates = res.Stats.MCStates
	row.MCTrans = res.Stats.MCTrans
	row.MCVisitedBytes = res.Stats.MCVisitedBytes
	row.SATVars = res.Stats.SATVars
	row.SATClauses = res.Stats.SATClauses
	row.SATConfl = res.Stats.SATConfl
	row.Parallelism = res.Stats.Parallelism
	row.SATWorkers = res.Stats.SATWorkers
	row.MCWorkerStates = res.Stats.MCWorkerStates
	row.SATExported = res.Stats.SATExported
	row.SATImported = res.Stats.SATImported
	row.ProjHits = res.Stats.ProjHits
	row.ProjMisses = res.Stats.ProjMisses
	row.ProjSaved = res.Stats.ProjSaved
	row.ProofLemmas = res.Stats.ProofLemmas
	row.ProofChecked = res.Stats.ProofChecked
	row.ProofCheck = res.Stats.ProofCheck
	if opts.RankEmitted && res.Resolved {
		rankEmitted(sk, res, &row, opts)
	}
	return row
}

// foldMetrics merges a finished row's registry into the sweep's: sums
// add, high-water marks max. This keeps a journal trailer written from
// the sweep registry meaningful for the whole sweep.
func foldMetrics(dst, row *obs.Metrics) {
	if dst == nil {
		return
	}
	for name, v := range row.Snapshot() {
		if obs.HighWaterCounters[name] {
			dst.Counter(name).Max(v)
		} else {
			dst.Counter(name).Add(v)
		}
	}
}

// rankEmitted lowers the resolved candidate to a Go package in a
// scratch directory and measures its generated load harness — the
// emit/rank throughput column. Failures are silent by design: a bench
// sweep must not die because the host lacks a go toolchain or the
// harness has no drivable ops.
func rankEmitted(sk *desugar.Sketch, res *core.Result, row *Row, opts Options) {
	if !emit.HaveGo("") {
		return
	}
	root, err := os.MkdirTemp("", "psketch-emit-")
	if err != nil {
		return
	}
	defer os.RemoveAll(root)
	p, err := emit.Emit(sk, res.Candidate, emit.Options{
		Name: "cand00", Tracer: opts.Trace, Metrics: opts.Metrics,
	})
	if err != nil {
		return
	}
	dir := filepath.Join(root, "cand00")
	if err := p.WriteDir(dir); err != nil {
		return
	}
	ms, err := emit.Rank([]string{dir}, emit.RankOptions{
		Runs: 1, Duration: 200 * time.Millisecond,
		Tracer: opts.Trace, Metrics: opts.Metrics,
	})
	if err != nil || len(ms) == 0 || ms[0].Err != "" {
		return
	}
	row.Throughput = ms[0].OpsPerSec
}

// RunFig9 sweeps the Figure 9 grid and prints measured-vs-paper rows.
func RunFig9(w io.Writer, opts Options) []Row {
	var rows []Row
	fmt.Fprintf(w, "%-9s %-14s | %-5s %4s %9s %8s %8s %8s %8s %7s | %-5s %4s %9s\n",
		"bench", "test", "res", "itns", "total", "Ssolve", "Smodel", "Vsolve", "Vmodel", "MiB",
		"paper", "itns", "total")
	fmt.Fprintln(w, strings.Repeat("-", 130))
	grid := sketches.All()
	if opts.IncludeExtras {
		grid = append(grid, sketches.Extras()...)
	}
	for _, b := range grid {
		if opts.Filter != "" && !strings.Contains(b.Name, opts.Filter) {
			continue
		}
		for _, test := range b.Tests {
			row := RunOne(b, test, opts)
			rows = append(rows, row)
			pr, hasPaper := PaperRowFor(b.Name, test)
			pres, pit, ptot := "-", "-", "-"
			if hasPaper {
				pres = yesno(pr.Resolvable)
				pit = fmt.Sprintf("%d", pr.Itns)
				ptot = fmt.Sprintf("%.1fs", pr.TotalSec)
			}
			if row.Err != nil {
				fmt.Fprintf(w, "%-9s %-14s | ERROR: %v\n", row.Bench, row.Test, row.Err)
				continue
			}
			fmt.Fprintf(w, "%-9s %-14s | %-5s %4d %9s %8s %8s %8s %8s %7.1f | %-5s %4s %9s\n",
				row.Bench, row.Test, yesno(row.Resolved), row.Itns,
				short(row.Total), short(row.SSolve), short(row.SModel),
				short(row.VSolve), short(row.VModel), row.MemMiB,
				pres, pit, ptot)
			if row.Parallelism > 1 {
				fmt.Fprint(w, workerLine(row))
			}
		}
	}
	return rows
}

// workerLine renders the per-worker columns of a parallel run: which
// portfolio workers won the solve races (and their conflict totals),
// and how the verifier states spread over the MC workers.
func workerLine(row Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-14s |   j=%d sat[", "", "", row.Parallelism)
	for i, ws := range row.SATWorkers {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "w%d:%dwin/%dcf/%dexp/%dimp", i, ws.Wins, ws.Conflicts, ws.Exported, ws.Imported)
	}
	b.WriteString("] mc[")
	for i, n := range row.MCWorkerStates {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "w%d:%dst", i, n)
	}
	b.WriteString("]\n")
	fmt.Fprintf(&b, "%-9s %-14s |   proj[%d hit/%d miss, %d entries saved]\n",
		"", "", row.ProjHits, row.ProjMisses, row.ProjSaved)
	return b.String()
}

// Table1 prints the candidate-space table next to the paper's.
func Table1(w io.Writer) error {
	fmt.Fprintf(w, "%-9s %-14s %22s %10s %10s\n", "sketch", "test", "|C|", "log10|C|", "paper")
	fmt.Fprintln(w, strings.Repeat("-", 70))
	for _, b := range sketches.All() {
		test := b.Tests[0]
		src, err := b.Source(test)
		if err != nil {
			return err
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return err
		}
		sk, err := desugar.Desugar(prog, "Main", b.Opts(test))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-9s %-14s %22s %10.1f %9.1f\n",
			b.Name, test, sk.Count.String(), logBig(sk.Count), PaperTable1[b.Name])
	}
	return nil
}

// Fig10 prints the log|C|-vs-iterations series (the paper observed an
// approximately linear correlation).
func Fig10(w io.Writer, rows []Row) {
	type pt struct {
		logC float64
		itns int
		name string
	}
	var pts []pt
	for _, r := range rows {
		if r.Err == nil && r.Resolved {
			pts = append(pts, pt{r.LogC, r.Itns, r.Bench + "/" + r.Test})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].logC < pts[j].logC })
	fmt.Fprintf(w, "%-26s %9s %6s\n", "test", "log10|C|", "itns")
	fmt.Fprintln(w, strings.Repeat("-", 45))
	for _, p := range pts {
		bar := strings.Repeat("*", p.itns)
		fmt.Fprintf(w, "%-26s %9.1f %6d %s\n", p.name, p.logC, p.itns, bar)
	}
	// Least-squares slope as the trend indicator.
	if len(pts) >= 2 {
		var sx, sy, sxx, sxy float64
		for _, p := range pts {
			x, y := p.logC, float64(p.itns)
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		n := float64(len(pts))
		den := n*sxx - sx*sx
		if den != 0 {
			slope := (n*sxy - sx*sy) / den
			fmt.Fprintf(w, "\nleast-squares slope: %.2f iterations per decade of |C| (paper: positive, ~linear)\n", slope)
		}
	}
}

func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func short(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
