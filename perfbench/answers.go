package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"psketch"
	"psketch/internal/bench"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/oracle"
	"psketch/internal/parser"
	"psketch/internal/sketches"
	"psketch/internal/state"
)

// rowKey names one Figure 9 row: a Table 1 sketch and a test pattern.
type rowKey struct{ Bench, Test string }

func (k rowKey) String() string { return k.Bench + " " + k.Test }

// synthExcluded are the Figure 9 sketches left out of the synth row set:
// queueE1 and barrier1 finish in under 100 ms at -j 1 and swing 41-286%
// between runs; barrier2 alone takes 28 s.
var synthExcluded = map[string]bool{"queueE1": true, "barrier1": true, "barrier2": true}

// synthRows are the 20 Figure 9 rows the synth workload uses, in the
// paper's order.
func synthRows() []rowKey {
	var out []rowKey
	for _, r := range bench.PaperFig9 {
		if !synthExcluded[r.Bench] {
			out = append(out, rowKey{r.Bench, r.Test})
		}
	}
	return out
}

// serviceSets are the service workload's sketches, one disjoint set per
// HTTP client, so no two in-flight jobs ever share a warm-store key. All
// six fit the default 256 MiB warm store without eviction.
var serviceSets = [][]rowKey{
	{{"queueDE1", "ed(ee|dd)"}, {"fineset1", "ar(ar|ar)"}, {"barrier1", "N=3,B=3"}},
	{{"queueDE1", "ed(ed|ed)"}, {"queueE2", "(e|e|e)ddd"}, {"barrier1", "N=3,B=2"}},
}

// rowAnswer is one row's known answer: the Figure 9 verdict and, for a
// YES, the candidate the deterministic -j 1 engine finds.
type rowAnswer struct {
	Bench      string  `json:"bench"`
	Test       string  `json:"test"`
	Resolvable bool    `json:"resolvable"`
	Candidate  []int64 `json:"candidate,omitempty"`
}

// answers is the checked-in known-answers file (answers.json).
type answers struct {
	Rows []rowAnswer `json:"rows"`
}

func loadAnswers(path string) (*answers, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("known answers: %w", err)
	}
	var a answers
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("known answers %s: %w", path, err)
	}
	return &a, nil
}

// row is one Figure 9 row ready to run: its source, the per-row engine
// options pskbench uses, and its known answer.
type row struct {
	key   rowKey
	src   string
	dopts desugar.Options
	opts  psketch.Options
	want  rowAnswer
}

// newRow builds a row with pskbench's per-row options at Parallelism 1.
// The lone NO row runs with Proof, so its verdict carries a replayed
// DRAT certificate.
func newRow(k rowKey) (*row, error) {
	b := sketches.ByName(k.Bench)
	if b == nil || !slices.Contains(b.Tests, k.Test) {
		return nil, fmt.Errorf("unknown Figure 9 row %s", k)
	}
	src, err := b.Source(k.Test)
	if err != nil {
		return nil, err
	}
	d := b.Opts(k.Test)
	opts := psketch.Options{
		IntWidth:    d.IntWidth,
		HoleWidth:   d.HoleWidth,
		LoopBound:   d.LoopBound,
		MaxRepeat:   d.MaxRepeat,
		Encoding:    d.Encoding,
		Parallelism: 1,
		Proof:       !b.Resolvable[k.Test],
	}
	if k.Bench == "dinphilo" && strings.HasPrefix(k.Test, "N=5") {
		opts.MCMaxStates = 60_000_000
	}
	return &row{key: k, src: src, dopts: d, opts: opts}, nil
}

// loadRows builds the rows for keys and attaches their known answers.
func loadRows(a *answers, keys []rowKey) ([]*row, error) {
	byKey := map[rowKey]rowAnswer{}
	for _, ra := range a.Rows {
		byKey[rowKey{ra.Bench, ra.Test}] = ra
	}
	out := make([]*row, 0, len(keys))
	for _, k := range keys {
		r, err := newRow(k)
		if err != nil {
			return nil, err
		}
		want, ok := byKey[k]
		if !ok {
			return nil, fmt.Errorf("known answers: no entry for row %s", k)
		}
		r.want = want
		out = append(out, r)
	}
	return out, nil
}

// desugared parses and desugars the row's sketch for its harness.
func (r *row) desugared() (*desugar.Sketch, error) {
	prog, err := parser.Parse(r.src)
	if err != nil {
		return nil, err
	}
	return desugar.Desugar(prog, "Main", r.dopts)
}

// layout lowers a desugared sketch to the model checker's state layout.
func layout(sk *desugar.Sketch) (*state.Layout, error) {
	prog, err := ir.Lower(sk)
	if err != nil {
		return nil, err
	}
	return state.NewLayout(prog)
}

// oracleMaxStates bounds the naive reference checker. A moved YES
// candidate whose state space exceeds it fails its output check rather
// than passing unverified.
const oracleMaxStates = 4_000_000

// checkVerdict is the output check of one synthesis: the verdict must
// equal the known answer, a NO must carry its DRAT certificate, and a
// YES candidate must equal the recorded one or, when a change has moved
// the -j 1 trajectory, pass the naive reference checker.
func (r *row) checkVerdict(resolved bool, cand []int64, hasCert bool) error {
	if resolved != r.want.Resolvable {
		return fmt.Errorf("%s: verdict resolved=%v, want %v", r.key, resolved, r.want.Resolvable)
	}
	if !resolved {
		if !hasCert {
			return fmt.Errorf("%s: NO verdict carries no DRAT certificate", r.key)
		}
		return nil
	}
	if slices.Equal(cand, r.want.Candidate) {
		return nil
	}
	sk, err := r.desugared()
	if err != nil {
		return err
	}
	l, err := layout(sk)
	if err != nil {
		return err
	}
	v, err := oracle.CheckExhaustive(l, cand, oracleMaxStates)
	if err != nil {
		return fmt.Errorf("%s: reference check of candidate %v: %w", r.key, cand, err)
	}
	if !v.OK {
		return fmt.Errorf("%s: candidate %v fails the reference checker: %v", r.key, cand, v.Failure)
	}
	return nil
}

// regenerate re-records the known answers from a -j 1 run of every row
// the workloads use, and writes them to path. It refuses to record a
// verdict that differs from Figure 9's column.
func regenerate(path string, logf func(format string, args ...any)) error {
	keys := synthRows()
	seen := map[rowKey]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for _, set := range serviceSets {
		for _, k := range set {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	var a answers
	for _, k := range keys {
		paper, ok := bench.PaperRowFor(k.Bench, k.Test)
		if !ok {
			return fmt.Errorf("%s is not a Figure 9 row", k)
		}
		r, err := newRow(k)
		if err != nil {
			return err
		}
		if b := sketches.ByName(k.Bench); b.Resolvable[k.Test] != paper.Resolvable {
			return fmt.Errorf("%s: sketches.Resolvable disagrees with Figure 9", k)
		}
		res, err := psketch.Synthesize(r.src, "Main", r.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		if res.Resolved != paper.Resolvable {
			return fmt.Errorf("%s: -j 1 verdict resolved=%v disagrees with Figure 9", k, res.Resolved)
		}
		ra := rowAnswer{Bench: k.Bench, Test: k.Test, Resolvable: res.Resolved}
		if res.Resolved {
			ra.Candidate = []int64(res.Candidate)
		}
		a.Rows = append(a.Rows, ra)
		logf("%s: resolved=%v, candidate %v", k, res.Resolved, ra.Candidate)
	}
	return os.WriteFile(path, a.encode(), 0o644)
}

// encode renders the answers one row per line, so a re-recording diffs
// row by row.
func (a *answers) encode() []byte {
	var b bytes.Buffer
	b.WriteString("{\n \"rows\": [\n")
	for i, r := range a.Rows {
		line, _ := json.Marshal(r) // a plain struct always marshals
		b.WriteString("  ")
		b.Write(line)
		if i < len(a.Rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString(" ]\n}\n")
	return b.Bytes()
}
