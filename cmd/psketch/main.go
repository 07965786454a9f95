// Command psketch synthesizes a sketch file:
//
//	psketch [flags] file.psk
//
// The target defaults to the single harness (or implements) function in
// the file; -target overrides. On success the resolved program is
// printed (holes filled, chosen statement order restored); if the
// sketch cannot be completed the exit status is 2 and the tool prints
// NO, as PSKETCH did for the lazyset benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"psketch"
	"psketch/internal/obs"
)

func main() {
	var (
		target    = flag.String("target", "", "harness/implements function to synthesize (default: autodetect)")
		intWidth  = flag.Int("intwidth", 5, "bit width of int values")
		holeWidth = flag.Int("holewidth", 3, "default bit width of ?? holes")
		loopBound = flag.Int("loopbound", 4, "while-loop unroll bound")
		maxRepeat = flag.Int("maxrepeat", 8, "repeat(??) bound")
		quadratic = flag.Bool("quadratic", false, "use the quadratic reorder encoding (default: insertion)")
		maxStates = flag.Int("maxstates", 0, "model-checker state budget (0 = default)")
		verbose   = flag.Bool("v", false, "per-iteration progress")
		showCount = flag.Bool("count", false, "print |C| and exit")
		traces    = flag.Int("traces", 1, "counterexample traces per CEGIS iteration")
		par       = flag.Int("j", runtime.GOMAXPROCS(0), "solver/verifier parallelism (1 = deterministic)")
		proof     = flag.Bool("proofcheck", false, "log DRAT proofs and replay every UNSAT verdict through the backward checker")
		journal   = flag.String("journal", "", "write a structured run journal (JSONL) to this file; inspect with psktrace")
		debugAddr = flag.String("debug-addr", "", "serve live /metrics and /debug/pprof on this address")
		maxSol    = flag.Int("max-solutions", 0, "enumerate up to N distinct verified solutions (block each and re-solve until UNSAT) and print them; 0 = the first only, or 8 with -emit-dir")
		emitDir   = flag.String("emit-dir", "", "enumerate verified solutions (bounded by -max-solutions) and emit each distinct one as a compilable Go package under this directory; rank them with pskemit -dir")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psketch [flags] file.psk")
		os.Exit(1)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Observability: -journal traces the whole run to JSONL (psktrace
	// renders it), -debug-addr serves the same counters live.
	met := obs.NewMetrics()
	var (
		tr *obs.Tracer
		js *obs.JournalSink
		jf *os.File
	)
	if *journal != "" {
		f, err := os.Create(*journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
			os.Exit(1)
		}
		jf = f
		js = obs.NewJournalSink(f, map[string]string{
			"cmd":         "psketch",
			"file":        flag.Arg(0),
			"parallelism": strconv.Itoa(*par),
			"goos":        runtime.GOOS,
		})
		tr = obs.NewTracer(js)
	}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, met)
		if err != nil {
			fmt.Fprintln(os.Stderr, "debug-addr:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "psketch: live /metrics and /debug/pprof on http://%s\n", srv.Addr())
	}
	// exit finishes the journal (metrics trailer + flush) first, since
	// os.Exit skips deferred calls.
	exit := func(code int) {
		if js != nil {
			js.WriteMetrics(met.Snapshot())
			if err := js.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "journal:", err)
			}
			jf.Close()
			fmt.Fprintf(os.Stderr, "wrote journal to %s\n", *journal)
		}
		os.Exit(code)
	}
	opts := psketch.Options{
		IntWidth:           *intWidth,
		HoleWidth:          *holeWidth,
		LoopBound:          *loopBound,
		MaxRepeat:          *maxRepeat,
		MCMaxStates:        *maxStates,
		TracesPerIteration: *traces,
		MaxSolutions:       *maxSol,
		Parallelism:        *par,
		Proof:              *proof,
		Trace:              tr,
		Metrics:            met,
	}
	if *quadratic {
		opts.Encoding = psketch.EncodeQuadratic
	}
	if *verbose {
		opts.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	tgt := *target
	if tgt == "" {
		tgt, err = autodetectTarget(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	sk, err := psketch.Compile(string(src), tgt, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if *showCount {
		fmt.Printf("|C| = %s\n", sk.CandidateCount())
		exit(0)
	}
	if *emitDir != "" {
		exit(runEmit(sk, *emitDir))
	}
	if *maxSol > 0 {
		rs, err := sk.Enumerate()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if len(rs) == 0 {
			fmt.Println("NO — the sketch cannot be resolved")
			exit(2)
		}
		seen := map[string]bool{}
		n := 0
		for _, r := range rs {
			if seen[r.Code] {
				continue
			}
			seen[r.Code] = true
			n++
			fmt.Printf("// ---- solution %d (%d iteration(s)) ----\n\n%s\n", n, r.Stats.Iterations, r.Code)
		}
		exit(0)
	}
	res, err := sk.Synthesize()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if !res.Resolved {
		fmt.Println("NO — the sketch cannot be resolved")
		if res.Certificate != nil {
			fmt.Printf("// DRAT-certified: %d premises, %d lemmas replayed\n",
				res.Certificate.NumPremises(), res.Certificate.NumLemmas())
		}
		exit(2)
	}
	fmt.Printf("// resolved in %d iteration(s), %v\n\n", res.Stats.Iterations, res.Stats.Total.Round(1000000))
	fmt.Print(res.Code)
	exit(0)
}

func autodetectTarget(src string) (string, error) {
	return psketch.DetectTarget(src)
}

// runEmit drives -emit-dir: enumerate verified candidates and lower
// each distinct one to a Go package under dir. Returns the exit code.
func runEmit(sk *psketch.Sketch, dir string) int {
	rs, err := sk.Enumerate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(rs) == 0 {
		fmt.Println("NO — the sketch cannot be resolved")
		return 2
	}
	man, err := sk.Emit(dir, rs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("// %d distinct verified candidate(s) emitted under %s; rank them with pskemit -dir %s\n",
		len(man.Candidates), dir, dir)
	for _, d := range man.CandidateDirs(dir) {
		fmt.Printf("// %s\n", d)
	}
	return 0
}
