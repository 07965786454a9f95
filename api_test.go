package psketch

import (
	"math/big"
	"strings"
	"testing"
)

func TestDetectTarget(t *testing.T) {
	tgt, err := DetectTarget(`harness void M() { fork (i; 1) { } }`)
	if err != nil || tgt != "M" {
		t.Fatalf("got %q, %v", tgt, err)
	}
	tgt, err = DetectTarget(`int s(int x) { return x; } int f(int x) implements s { return x; }`)
	if err != nil || tgt != "f" {
		t.Fatalf("got %q, %v", tgt, err)
	}
	if _, err := DetectTarget(`void f() { }`); err == nil {
		t.Fatal("expected no-target error")
	}
	if _, err := DetectTarget(`harness void A() { fork (i; 1) { } } harness void B() { fork (i; 1) { } }`); err == nil {
		t.Fatal("expected multi-target error")
	}
}

func TestCountAPI(t *testing.T) {
	n, err := Count(`
int g;
harness void M() {
	fork (i; 1) { }
	g = {| 1 | 2 | 3 |};
}
`, "M", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("|C| = %s", n)
	}
}

func TestModelCheckAPI(t *testing.T) {
	sk, err := Compile(`
int g = 0;
harness void M() {
	fork (i; 2) {
		if ({| true | false |}) {
			atomic { g = g + 1; }
		} else {
			int t = g;
			t = t + 1;
			g = t;
		}
	}
	assert g == 2;
}
`, "M", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := sk.ModelCheck(Candidate{0})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("atomic candidate must verify")
	}
	ok, cex, err := sk.ModelCheck(Candidate{1})
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(cex, "assertion") {
		t.Fatalf("racy candidate: ok=%v cex=%q", ok, cex)
	}

	// Candidates that do not fit the holes are errors, not clamped or
	// truncated into a different candidate that verifies.
	hole, err := Compile(`
int g = 0;
harness void M() {
	fork (i; 2) { g = ??; }
	assert g == 9;
}
`, "M", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sk   *Sketch
		cand Candidate
		want string
	}{
		{hole, Candidate{9}, "hole 0 ?? is outside [0, 8)"},
		{sk, Candidate{2}, "hole 0 {|true | false|} is outside [0, 2)"},
		{hole, Candidate{1, 5}, "2 values but the sketch's hole count is 1"},
	} {
		if ok, _, err := c.sk.ModelCheck(c.cand); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ModelCheck(%v): ok=%v err=%v, want an error containing %q", c.cand, ok, err, c.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("void f() { x = 1; }", "f", Options{}); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := Compile("void f() { }", "g", Options{}); err == nil {
		t.Fatal("expected unknown-target error")
	}
}

// The quadratic encoding must synthesize the same problems as the
// default insertion encoding.
func TestQuadraticEncodingEndToEnd(t *testing.T) {
	src := `
int a = 0;
int b = 0;
harness void M() {
	fork (i; 1) { }
	reorder {
		a = b + 1;
		b = 5;
	}
	assert a == 6;
}
`
	for _, enc := range []Encoding{EncodeInsertion, EncodeQuadratic} {
		res, err := Synthesize(src, "M", Options{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Resolved {
			t.Fatalf("encoding %v did not resolve", enc)
		}
		if !strings.Contains(res.Code, "b = 5;") {
			t.Fatalf("bad code:\n%s", res.Code)
		}
		// The chosen order must put b = 5 first.
		if strings.Index(res.Code, "b = 5;") > strings.Index(res.Code, "a = b + 1;") {
			t.Fatalf("wrong order:\n%s", res.Code)
		}
	}
}

// Enumerate must return distinct correct candidates (the §8.3.1
// multiple-solutions hook) and stop when the space is exhausted.
func TestEnumerate(t *testing.T) {
	sk, err := Compile(`
int a = 0;
harness void M() {
	fork (i; 1) { }
	a = {| 1 | 2 | 3 | 0 - 1 |};
	assert a > 0;
}
`, "M", Options{MaxSolutions: 10})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sk.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("found %d candidates, want 3", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		key := CandidateString(r.Candidate)
		if seen[key] {
			t.Fatalf("duplicate candidate %s", key)
		}
		seen[key] = true
	}
}

// ModelCheck counterexamples include a readable schedule.
func TestModelCheckTraceFormat(t *testing.T) {
	sk, err := Compile(`
int g = 0;
harness void M() {
	fork (i; 2) {
		int t = g;
		t = t + 1;
		g = t;
	}
	assert g == 2;
}
`, "M", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, cex, err := sk.ModelCheck(Candidate{})
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	for _, want := range []string{"counterexample:", "thread 0:", "thread 1:", "= counter"} {
		if want == "= counter" {
			continue // local names vary
		}
		if !strings.Contains(cex, want) {
			t.Fatalf("missing %q in:\n%s", want, cex)
		}
	}
}
