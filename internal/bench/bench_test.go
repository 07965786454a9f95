package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"psketch/internal/obs"
	"psketch/internal/sketches"
)

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"queueE1", "queueE2", "1975680", "dinphilo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunOneTimeout(t *testing.T) {
	row := RunOne(sketches.QueueDE2(), "ed(ed|ed)", Options{Timeout: time.Millisecond})
	if row.Err == nil || !strings.Contains(row.Err.Error(), "timeout") {
		t.Fatalf("expected timeout, got %+v", row)
	}
}

func TestFig9AndFig10Output(t *testing.T) {
	var buf bytes.Buffer
	rows := RunFig9(&buf, Options{Filter: "queueE", Timeout: 5 * time.Minute})
	if len(rows) != 5 { // queueE1 ×3 + queueE2 ×2
		t.Fatalf("rows %d", len(rows))
	}
	if !strings.Contains(buf.String(), "paper") {
		t.Fatal("paper columns missing")
	}
	buf.Reset()
	Fig10(&buf, rows)
	if !strings.Contains(buf.String(), "slope") {
		t.Fatalf("no trend line:\n%s", buf.String())
	}
}

// Rows swept on one shared registry report their own work: row 2 of a
// two-row -j 1 sweep gets the model-checker counters that row 2 gets
// run alone, and the shared registry ends up with both rows' sums.
func TestFig9RowsCountTheirOwnWork(t *testing.T) {
	met := obs.NewMetrics()
	opts := Options{Filter: "queueE2", Parallelism: 1, Metrics: met}
	rows := RunFig9(io.Discard, opts)
	if len(rows) != 2 {
		t.Fatalf("rows %d, want queueE2's 2", len(rows))
	}
	alone := RunOne(sketches.QueueE2(), rows[1].Test, Options{Parallelism: 1})
	for _, r := range append(rows, alone) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if rows[1].MCStates != alone.MCStates || rows[1].MCTrans != alone.MCTrans {
		t.Errorf("row 2 after row 1: %d states, %d trans; alone: %d states, %d trans",
			rows[1].MCStates, rows[1].MCTrans, alone.MCStates, alone.MCTrans)
	}
	if got, want := met.Counter("mc.states").Get(), int64(rows[0].MCStates+rows[1].MCStates); got != want {
		t.Errorf("sweep registry mc.states = %d, want the rows' sum %d", got, want)
	}
}

func TestPaperDataComplete(t *testing.T) {
	// Every benchmark/test in the grid has a paper row, and vice versa.
	for _, b := range sketches.All() {
		for _, test := range b.Tests {
			if _, ok := PaperRowFor(b.Name, test); !ok {
				t.Errorf("no paper row for %s %s", b.Name, test)
			}
		}
		if _, ok := PaperTable1[b.Name]; !ok {
			t.Errorf("no paper Table 1 entry for %s", b.Name)
		}
	}
	for _, r := range PaperFig9 {
		b := sketches.ByName(r.Bench)
		if b == nil {
			t.Errorf("paper row references unknown benchmark %s", r.Bench)
			continue
		}
		found := false
		for _, test := range b.Tests {
			if test == r.Test {
				found = true
			}
		}
		if !found {
			t.Errorf("paper row %s %s not in our grid", r.Bench, r.Test)
		}
	}
}
