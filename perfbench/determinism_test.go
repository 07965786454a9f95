package main

import (
	"testing"
	"time"
)

// exactCounts returns the job sequence of a region as (key, exact work
// counters) pairs; the engine's own timings are dropped.
func exactCounts(t *testing.T, r *region) []jobResult {
	t.Helper()
	if res := tally(r); !res.line.Correct {
		t.Fatalf("output checks failed: %v", res.failures)
	}
	out := make([]jobResult, len(r.jobs))
	for i, j := range r.jobs {
		j.c.synthTotal = 0
		out[i] = jobResult{key: j.key, c: j.c}
	}
	return out
}

func sameJobs(t *testing.T, what string, a, b []jobResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d jobs vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].key != b[i].key || a[i].c != b[i].c {
			t.Errorf("%s: job %d differs:\n  %s %+v\n  %s %+v", what, i, a[i].key, a[i].c, b[i].key, b[i].c)
		}
	}
}

func testAnswers(t *testing.T) *answers {
	t.Helper()
	a, err := loadAnswers("answers.json")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSynthDeterminism: two passes with the same seed give identical
// exact counters for every job, and a row gives the same counters run
// alone, repeated, or after other rows — each job has its own metrics
// registry.
func TestSynthDeterminism(t *testing.T) {
	rows, err := loadRows(testAnswers(t), []rowKey{
		{"queueDE1", "ed(ee|dd)"}, {"fineset1", "ar(ar|ar)"}, {"queueE2", "(e|e|e)ddd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pass := func(seed int64, rows []*row) []jobResult {
		r, err := newSynthPass(rows, seed, synthShortReps).run(time.Nanosecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		return exactCounts(t, r)
	}
	a, b := pass(7, rows), pass(7, rows)
	if want := len(rows) * synthShortReps; len(a) != want {
		t.Fatalf("a pass over %d short rows ran %d jobs, want %d", len(rows), len(a), want)
	}
	sameJobs(t, "same seed", a, b)
	for _, j := range a {
		if j.c.Iterations == 0 || j.c.MCStates == 0 || j.c.SATVars == 0 {
			t.Errorf("%s: empty counters %+v", j.key, j.c)
		}
	}
	for _, r := range rows {
		alone := pass(1, []*row{r})
		for _, j := range append(alone, a...) {
			if j.key == r.key.String() {
				sameJobs(t, "alone vs repeated or after other rows", alone[:1], []jobResult{j})
			}
		}
	}
}

// TestServiceVerdicts: a short service run ends every job done with the
// known verdict, and every job after a sketch's first starts warm.
func TestServiceVerdicts(t *testing.T) {
	w, err := newService(testAnswers(t), 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	rec := newRecorder()
	r, err := w.run(2*time.Second, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res := tally(r); !res.line.Correct {
		t.Fatalf("output checks failed: %v", res.failures)
	}
	n := float64(len(r.jobs))
	distinct := map[string]bool{}
	for _, j := range r.jobs {
		distinct[j.key] = true
		if j.c.Iterations == 0 {
			t.Errorf("%s: no counters from the job journal", j.key)
		}
	}
	if got, want := r.layer["warm.misses"]*n, float64(len(distinct)); got != want {
		t.Errorf("warm misses %v, want one per distinct sketch (%v)", got, want)
	}
	if r.layer["warm.evictions"] != 0 {
		t.Errorf("warm store evicted: %v per job", r.layer["warm.evictions"])
	}
}
