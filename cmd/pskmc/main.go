// Command pskmc model checks a concrete candidate of a sketch over all
// thread interleavings (the verifier half of the CEGIS loop, standing
// in for SPIN):
//
//	pskmc -cand 0,1,3 file.psk
//
// With no -cand every hole is 0, and a shorter -cand is zero-padded.
// Exit status is 0 for a verified candidate, 2 with a counterexample
// trace, and 1 on an error, such as a -cand with more values than the
// sketch has holes or a value outside its hole's range.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"psketch"
	"psketch/internal/obs"
)

func main() {
	var (
		target     = flag.String("target", "", "harness function (default: autodetect)")
		candFlag   = flag.String("cand", "", "comma-separated hole values (default: all zero)")
		intWidth   = flag.Int("intwidth", 5, "bit width of int values")
		loopBound  = flag.Int("loopbound", 4, "while-loop unroll bound")
		maxStates  = flag.Int("maxstates", 0, "state budget (0 = default)")
		par        = flag.Int("j", runtime.GOMAXPROCS(0), "search parallelism (1 = deterministic DFS)")
		timeout    = flag.Duration("timeout", 0, "abort the search after this long (0 = no limit)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		journal    = flag.String("journal", "", "write a structured run journal (JSONL) to this file; inspect with psktrace")
		debugAddr  = flag.String("debug-addr", "", "serve live /metrics and /debug/pprof on this address")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pskmc [flags] file.psk")
		os.Exit(1)
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
	// Observability: the model-check search traces its mc.check /
	// mc.worker spans into the journal; the same counters serve live
	// on -debug-addr.
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
			"cmd":  "pskmc",
			"file": flag.Arg(0),
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
		fmt.Fprintf(os.Stderr, "pskmc: live /metrics and /debug/pprof on http://%s\n", srv.Addr())
	}
	exit := func(code int) {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			writeMemProfile(*memProfile)
		}
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
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	tgt := *target
	if tgt == "" {
		tgt, err = psketch.DetectTarget(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	var cancel atomic.Bool
	if *timeout > 0 {
		t := time.AfterFunc(*timeout, func() { cancel.Store(true) })
		defer t.Stop()
	}
	sk, err := psketch.Compile(string(src), tgt, psketch.Options{
		IntWidth: *intWidth, LoopBound: *loopBound, MCMaxStates: *maxStates,
		Parallelism: *par, Cancel: &cancel,
		Trace: tr, Metrics: met,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	var cand psketch.Candidate
	if *candFlag != "" {
		for _, p := range strings.Split(*candFlag, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bad -cand:", err)
				exit(1)
			}
			cand = append(cand, v)
		}
	}
	ok, cex, err := sk.ModelCheck(cand)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if ok {
		fmt.Println("verified: no assertion violations, memory errors or deadlocks on any interleaving")
		exit(0)
	}
	fmt.Print(cex)
	exit(2)
}

func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
