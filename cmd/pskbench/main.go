// Command pskbench regenerates the paper's evaluation artifacts:
//
//	pskbench -table1            # Table 1: candidate-space sizes
//	pskbench -fig9              # Figure 9: per-test synthesis performance
//	pskbench -fig9 -filter queue -timeout 10m
//	pskbench -fig10             # Figure 10: log|C| vs iterations
//
// Every table prints measured values next to the paper's, matching the
// per-experiment index in DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"psketch/internal/bench"
	"psketch/internal/obs"
	"psketch/internal/sketches"
)

func main() {
	var (
		table1     = flag.Bool("table1", false, "regenerate Table 1")
		fig9       = flag.Bool("fig9", false, "regenerate Figure 9")
		fig10      = flag.Bool("fig10", false, "regenerate Figure 10 (runs the Figure 9 grid)")
		filter     = flag.String("filter", "", "benchmark name substring filter")
		extras     = flag.Bool("extras", false, "include extension benchmarks (treiber)")
		traces     = flag.Int("traces", 1, "counterexample traces per CEGIS iteration (multi-trace learning)")
		timeout    = flag.Duration("timeout", 30*time.Minute, "per-test synthesis timeout")
		verbose    = flag.Bool("v", false, "per-iteration progress")
		par        = flag.Int("j", runtime.GOMAXPROCS(0), "solver/verifier parallelism (use 1 for deterministic paper-comparable runs)")
		proof      = flag.Bool("proofcheck", false, "log DRAT proofs and replay every UNSAT verdict through the backward checker")
		jsonOut    = flag.String("json", "", "write the measured Figure 9 rows to this file as JSON")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		journal    = flag.String("journal", "", "write a structured run journal (JSONL) to this file; inspect with psktrace")
		flight     = flag.Int("flight", 0, "keep a flight recorder of the last N spans, dumped to <journal>.flight.jsonl if a run errors")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics (each row's counters land as the row ends) and /debug/pprof on this address (e.g. localhost:6060)")
		heapSample = flag.Int("heap-sample", 1, "sample the heap high-water mark every N CEGIS iterations (0 = once per run)")
		dumpSketch = flag.String("dump-sketch", "", "print the sketch source of benchmark NAME[:test] and exit (a .psk file for psketch or a psketchd job)")
		rankEmit   = flag.Bool("rank-emitted", false, "emit each winning candidate as Go and measure its load-harness throughput (needs the go tool)")
	)
	flag.Parse()
	if *dumpSketch != "" {
		if err := dumpSketchSource(*dumpSketch); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if !*table1 && !*fig9 && !*fig10 {
		*table1, *fig9, *fig10 = true, true, true
	}
	// Observability: a journal sink persists every span, the flight
	// recorder keeps the last N in memory for post-mortems, and both
	// feed off one tracer so the engine pays a single emit per span.
	met := obs.NewMetrics()
	var (
		tr    *obs.Tracer
		js    *obs.JournalSink
		jf    *os.File
		ring  *obs.RingSink
		sinks []obs.Sink
	)
	meta := map[string]string{
		"cmd":         "pskbench",
		"filter":      *filter,
		"parallelism": strconv.Itoa(*par),
		"goos":        runtime.GOOS,
	}
	if *journal != "" {
		f, err := os.Create(*journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
			os.Exit(1)
		}
		jf = f
		js = obs.NewJournalSink(f, meta)
		sinks = append(sinks, js)
	}
	if *flight > 0 {
		ring = obs.NewRingSink(*flight)
		sinks = append(sinks, ring)
	}
	if len(sinks) > 0 {
		tr = obs.NewTracer(obs.MultiSink(sinks...))
	}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, met)
		if err != nil {
			fmt.Fprintln(os.Stderr, "debug-addr:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pskbench: live /metrics and /debug/pprof on http://%s\n", srv.Addr())
	}
	// closeObs finishes the journal (metrics trailer + flush) and, when
	// a run failed, dumps the flight recorder next to it.
	closeObs := func(failed bool) {
		if js != nil {
			js.WriteMetrics(met.Snapshot())
			if err := js.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "journal:", err)
			}
			jf.Close()
			fmt.Fprintf(os.Stderr, "wrote journal to %s\n", *journal)
		}
		if failed && ring != nil {
			dumpFlight(ring, *journal, meta, met.Snapshot())
		}
	}
	opts := bench.Options{
		Filter: *filter, Timeout: *timeout, IncludeExtras: *extras,
		TracesPerIteration: *traces, Parallelism: *par, Proof: *proof,
		RankEmitted: *rankEmit,
		Trace:       tr, Metrics: met, HeapSampleEvery: *heapSample,
	}
	if *verbose {
		opts.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *table1 {
		fmt.Println("== Table 1: candidate-space sizes ==")
		if err := bench.Table1(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			closeObs(false)
			os.Exit(1)
		}
		fmt.Println()
	}
	var rows []bench.Row
	if *fig9 || *fig10 {
		fmt.Println("== Figure 9: synthesis performance (measured | paper) ==")
		rows = bench.RunFig9(os.Stdout, opts)
		fmt.Println()
	}
	if *fig10 {
		fmt.Println("== Figure 10: log10|C| vs CEGIS iterations ==")
		bench.Fig10(os.Stdout, rows)
	}
	failed := false
	for _, r := range rows {
		if r.Err != nil {
			failed = true
		}
	}
	closeObs(failed)
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, rows, opts); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d row(s) to %s\n", len(rows), *jsonOut)
	}
}

// dumpSketchSource prints the complete sketch text of one benchmark
// row ("lazyset" or "lazyset:ar(ar|ar)"; the default test is the
// benchmark's first) so the other tools can be driven from the Table 1
// grid without checked-in .psk copies:
//
//	pskbench -dump-sketch 'queueE1:ed(ee|dd)' > queueE1.psk
//	psketch -intwidth 6 -loopbound 5 -emit-dir emitted queueE1.psk
func dumpSketchSource(spec string) error {
	name, test, _ := strings.Cut(spec, ":")
	for _, b := range append(sketches.All(), sketches.Extras()...) {
		if b.Name != name {
			continue
		}
		if test == "" {
			test = b.Tests[0]
		}
		src, err := b.Source(test)
		if err != nil {
			return err
		}
		fmt.Print(src)
		return nil
	}
	return fmt.Errorf("unknown benchmark %q (see pskbench -table1 for names)", name)
}

// dumpFlight writes the flight recorder's last spans as a well-formed
// journal next to the main one (or to pskbench.flight.jsonl).
func dumpFlight(ring *obs.RingSink, journal string, meta map[string]string, snap map[string]int64) {
	path := "pskbench.flight.jsonl"
	if journal != "" {
		path = journal + ".flight.jsonl"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flight:", err)
		return
	}
	defer f.Close()
	if err := ring.Dump(f, meta, snap); err != nil {
		fmt.Fprintln(os.Stderr, "flight:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "dumped flight recorder to %s\n", path)
}
