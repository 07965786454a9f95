// Command psktrace summarizes and compares run journals written by the
// -journal flag of psketch, pskbench and pskmc (and by flight-recorder
// dumps):
//
//	psktrace run.jsonl             # phase totals, time tree, iterations
//	psktrace -top 20 run.jsonl     # widen the hottest-spans table
//	psktrace -diff old.jsonl new.jsonl
//
// The summary cross-checks the span tree against the journal's metrics
// trailer: per-phase wall-clock reconstructed from spans must agree
// with the counters the engine maintained, so drift flags lost spans.
// The diff mode prints per-phase deltas between two journals.
package main

import (
	"flag"
	"fmt"
	"os"

	"psketch/internal/obs"
)

func main() {
	var (
		diff = flag.Bool("diff", false, "compare two journals (old new)")
		top  = flag.Int("top", 10, "number of hottest spans to list")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: psktrace -diff old.jsonl new.jsonl")
			os.Exit(2)
		}
		old, err := readJournal(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "psktrace:", err)
			os.Exit(2)
		}
		new, err := readJournal(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "psktrace:", err)
			os.Exit(2)
		}
		obs.Diff(os.Stdout, old, new)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psktrace [-top N] run.jsonl | psktrace -diff old.jsonl new.jsonl")
		os.Exit(2)
	}
	j, err := readJournal(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "psktrace:", err)
		os.Exit(2)
	}
	obs.Summarize(os.Stdout, j, *top)
}

func readJournal(path string) (*obs.Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadJournal(f)
}
