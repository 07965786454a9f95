// Command pskemit ranks the Go packages a `psketch -emit-dir` run
// emitted by measured throughput:
//
//	psketch -emit-dir out/ file.psk   # enumerate, emit, save out/manifest.json
//	pskemit -dir out/                 # build, load-test, and rank every candidate
//
// It reloads the manifest.json the emit run saved, builds every
// candidate package, drives its generated load harness, prints the
// candidates fastest first, and records the measurements in the
// manifest. No synthesis runs: the manifest is the saved verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"psketch"
)

func main() {
	var (
		dir        = flag.String("dir", "", "the psketch -emit-dir directory to rank (holds manifest.json)")
		goroutines = flag.Int("goroutines", 8, "load-harness goroutines per measurement")
		durMS      = flag.Int("duration-ms", 500, "measurement window per run, milliseconds")
		runs       = flag.Int("runs", 3, "measurement runs per candidate (best is kept)")
		mix        = flag.String("mix", "", "comma-separated op mix override for the load harness (default: the sketch harness mix)")
		jsonOut    = flag.Bool("json", false, "print measurements as JSON instead of text")
	)
	flag.Parse()
	if *dir == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pskemit [flags] -dir out/")
		os.Exit(1)
	}
	man, ms, err := psketch.RankEmitted(*dir, psketch.RankOptions{
		Goroutines: *goroutines,
		Duration:   time.Duration(*durMS) * time.Millisecond,
		Runs:       *runs,
		Mix:        *mix,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Sketch string                `json:"sketch"`
			Ranked []psketch.Measurement `json:"ranked"`
		}{man.Sketch, ms})
		return
	}
	fmt.Printf("// %s: %d candidate(s), fastest first\n", man.Sketch, len(ms))
	for i, m := range ms {
		if m.Err != "" {
			fmt.Printf("// #%d %s: FAILED (%s)\n", i+1, m.Dir, m.Err)
			continue
		}
		fmt.Printf("// #%d %s: %.0f ops/sec (%d ops, build %dms)\n", i+1, m.Dir, m.OpsPerSec, m.Ops, m.BuildMS)
	}
}
