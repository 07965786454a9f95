package psketch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"psketch/internal/sketches"
)

// queueE1Sketch compiles the queueE1 Table 1 row ("ed(ee|dd)") with
// the given engine configuration. The row's verified space is small
// enough that MaxSolutions 64 always exhausts it to UNSAT, so the
// enumerated set — not just its size — is a whole-space fact.
func queueE1Sketch(t *testing.T, opts Options) *Sketch {
	t.Helper()
	bm := sketches.ByName("queueE1")
	if bm == nil {
		t.Fatal("queueE1 benchmark not registered")
	}
	src, err := bm.Source("ed(ee|dd)")
	if err != nil {
		t.Fatal(err)
	}
	d := bm.Opts("ed(ee|dd)")
	opts.IntWidth = d.IntWidth
	opts.LoopBound = d.LoopBound
	opts.MaxSolutions = 64
	sk, err := Compile(src, "Main", opts)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// candidateSet runs Enumerate and returns the verified candidate set
// as a sorted slice of candidate strings.
func candidateSet(t *testing.T, opts Options) []string {
	t.Helper()
	rs, err := queueE1Sketch(t, opts).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	set := make([]string, 0, len(rs))
	seen := map[string]bool{}
	for _, r := range rs {
		key := CandidateString(r.Candidate)
		if seen[key] {
			t.Fatalf("Enumerate returned duplicate candidate %s", key)
		}
		seen[key] = true
		set = append(set, key)
	}
	sort.Strings(set)
	return set
}

// The enumerate-all verified set is a property of the sketch, not of
// the engine configuration: sequential and parallel-portfolio runs must
// converge on the same set of blocked solutions before hitting UNSAT.
func TestEnumerateAllInvariantAcrossConfigs(t *testing.T) {
	base := candidateSet(t, Options{Parallelism: 1})
	if len(base) == 0 {
		t.Fatal("queueE1 ed(ee|dd) enumerated no verified candidates")
	}
	configs := map[string]Options{
		"parallel-4": {Parallelism: 4},
	}
	for name, opts := range configs {
		got := candidateSet(t, opts)
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Errorf("%s: enumerated set %v, sequential baseline %v", name, got, base)
		}
	}
}

// Emit over Enumerate's results writes one compilable package per
// distinct verified candidate plus a manifest that RankEmitted can
// reload.
func TestSynthesizeEmitManifest(t *testing.T) {
	dir := t.TempDir()
	sk := queueE1Sketch(t, Options{Parallelism: 1})
	rs, err := sk.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	man, err := sk.Emit(dir, rs)
	if err != nil {
		t.Fatal(err)
	}
	dirs := man.CandidateDirs(dir)
	if len(rs) == 0 || len(dirs) == 0 || len(dirs) > len(rs) {
		t.Fatalf("got %d results, %d dirs", len(rs), len(dirs))
	}
	for _, d := range dirs {
		for _, f := range []string{"ds.go", "bench.go", "ds_test.go", "go.mod"} {
			if _, err := os.Stat(filepath.Join(d, f)); err != nil {
				t.Errorf("emitted package missing %s: %v", f, err)
			}
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var saved EmitManifest
	if err := json.Unmarshal(b, &saved); err != nil {
		t.Fatal(err)
	}
	if saved.Sketch == "" || len(saved.Candidates) != len(dirs) {
		t.Fatalf("manifest: sketch %q, %d candidates, want %d", saved.Sketch, len(saved.Candidates), len(dirs))
	}
}
