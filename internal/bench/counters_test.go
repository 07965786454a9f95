package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"

	"psketch/internal/obs"
	"psketch/internal/sketches"
)

var update = flag.Bool("update", false, "re-record "+countersFile+" and log every counter that moved")

// countersFile holds the exact -j 1 verdict and work counters of every
// Figure 9 row, one line per row, in grid order.
const countersFile = "testdata/fig9_counters.txt"

// counterColumns names the table's columns after bench and test.
var counterColumns = []string{
	"verdict", "iters", "log10C",
	"conflicts", "decisions", "propagations", "vars", "clauses",
	"states", "trans", "visited_bytes",
	"proj_hits", "proj_misses", "proj_saved",
	"drat_lemmas", "drat_checked",
}

// shortRows are the rows that take under a second each at -j 1 on a
// 2-vCPU host; -short runs only these.
var shortRows = map[string]bool{
	"queueE1 ed(ee|dd)":     true,
	"queueE1 ed(ed|ed)":     true,
	"queueE1 (e|e|e)ddd":    true,
	"queueE2 ed(ed|ed)":     true,
	"queueE2 (e|e|e)ddd":    true,
	"queueDE1 ed(ee|dd)":    true,
	"queueDE1 ed(ed|ed)":    true,
	"barrier1 N=3,B=2":      true,
	"barrier1 N=3,B=3":      true,
	"fineset1 ar(ar|ar)":    true,
	"fineset1 ar(ar|ar|ar)": true,
	"fineset1 ar(a|r|a|r)":  true,
	"fineset2 ar(ar|ar)":    true,
	"fineset2 ar(a|r|a|r)":  true,
	"lazyset ar(aa|rr)":     true,
	"dinphilo N=3,T=5":      true,
}

// satWork sums the decisions and propagations of every sat.solve span,
// the two solver counters Stats does not carry.
type satWork struct {
	mu                      sync.Mutex
	decisions, propagations int64
}

func (s *satWork) Emit(rec obs.SpanRecord) {
	if rec.Name != "sat.solve" {
		return
	}
	s.mu.Lock()
	s.decisions += rec.IntAttr("decisions")
	s.propagations += rec.IntAttr("propagations")
	s.mu.Unlock()
}

// rowCounters synthesizes one row on the deterministic -j 1 engine and
// returns its verdict and counters, in counterColumns order. The NO row
// runs with Proof, so its DRAT counters are exercised too. Metrics stays
// nil: each run counts into a registry of its own.
func rowCounters(t *testing.T, b *sketches.Benchmark, test string) []string {
	var sw satWork
	row := RunOne(b, test, Options{
		Parallelism: 1,
		Proof:       !b.Resolvable[test],
		Trace:       obs.NewTracer(&sw),
	})
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if row.Resolved != row.Expected {
		t.Errorf("resolved=%v, the benchmark expects %v", row.Resolved, row.Expected)
	}
	return []string{
		yesno(row.Resolved), strconv.Itoa(row.Itns), strconv.FormatFloat(row.LogC, 'f', 3, 64),
		fmt.Sprint(row.SATConfl), fmt.Sprint(sw.decisions), fmt.Sprint(sw.propagations),
		fmt.Sprint(row.SATVars), fmt.Sprint(row.SATClauses),
		fmt.Sprint(row.MCStates), fmt.Sprint(row.MCTrans), fmt.Sprint(row.MCVisitedBytes),
		fmt.Sprint(row.ProjHits), fmt.Sprint(row.ProjMisses), fmt.Sprint(row.ProjSaved),
		fmt.Sprint(row.ProofLemmas), fmt.Sprint(row.ProofChecked),
	}
}

// moved lists "column old → new" for every counter that differs.
func moved(old, cur []string) []string {
	var out []string
	for i, c := range counterColumns {
		if old[i] != cur[i] {
			out = append(out, fmt.Sprintf("%s %s → %s", c, old[i], cur[i]))
		}
	}
	return out
}

// TestFig9Counters is the work-regression gate: every Figure 9 row's
// exact -j 1 verdict and work counters must equal the checked-in table.
// The counters do not depend on the host, the core count or the Go
// release, so any difference is a change in the engine's work (or a
// determinism bug) that the change introducing it must explain. -update
// re-records the rows that ran and logs each counter that moved; -short
// runs only the sub-second rows.
func TestFig9Counters(t *testing.T) {
	want, err := readCounters(countersFile)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	var keys []string
	for _, b := range sketches.All() {
		for _, test := range b.Tests {
			key := b.Name + " " + test
			keys = append(keys, key)
			if testing.Short() && !shortRows[key] {
				continue
			}
			t.Run(b.Name+"/"+test, func(t *testing.T) {
				cur := rowCounters(t, b, test)
				got[key] = cur
				old, ok := want[key]
				switch {
				case !ok && *update:
					t.Logf("%s: new row", key)
				case !ok:
					t.Errorf("%s: not in %s (rerun with -update)", key, countersFile)
				case *update:
					for _, m := range moved(old, cur) {
						t.Logf("%s: %s", key, m)
					}
				default:
					if m := moved(old, cur); len(m) > 0 {
						t.Errorf("%s: %s\n(if the change is intended, rerun with -update and explain the diff)",
							key, strings.Join(m, ", "))
					}
				}
			})
		}
	}
	if !*update {
		for key := range want {
			if !slices.Contains(keys, key) {
				t.Errorf("%s: in %s but not in the Figure 9 grid (rerun with -update)", key, countersFile)
			}
		}
		return
	}
	// Rows that did not run (-short, -run) keep their recorded counters;
	// rows no longer in the grid are dropped.
	for key, cur := range got {
		want[key] = cur
	}
	if err := os.WriteFile(countersFile, formatCounters(keys, want), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readCounters parses the table into "bench test" → counter columns.
func readCounters(path string) (map[string][]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := map[string][]string{}
	for n, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2+len(counterColumns) {
			return nil, fmt.Errorf("%s:%d: %d fields, want %d", path, n+1, len(f), 2+len(counterColumns))
		}
		rows[f[0]+" "+f[1]] = f[2:]
	}
	return rows, nil
}

// formatCounters renders the table: a comment header, then one aligned
// line per row in keys order.
func formatCounters(keys []string, rows map[string][]string) []byte {
	var buf bytes.Buffer
	buf.WriteString("# Exact -j 1 verdict and work counters of every Figure 9 row (TestFig9Counters).\n")
	buf.WriteString("# decisions/propagations sum the sat.solve spans; drat_* are nonzero only on the NO row, run with Proof.\n")
	buf.WriteString("# Re-record: go test ./internal/bench -run TestFig9Counters -update -v\n")
	tw := tabwriter.NewWriter(&buf, 0, 0, 1, ' ', 0)
	fmt.Fprintf(tw, "# bench\ttest\t%s\n", strings.Join(counterColumns, "\t"))
	for _, key := range keys {
		cur, ok := rows[key]
		if !ok {
			continue
		}
		bench, test, _ := strings.Cut(key, " ")
		fmt.Fprintf(tw, "%s\t%s\t%s\n", bench, test, strings.Join(cur, "\t"))
	}
	tw.Flush()
	return buf.Bytes()
}
