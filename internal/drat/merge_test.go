package drat

import (
	"reflect"
	"testing"
)

// Namespaces leave the common prefix alone, give each solver group its
// own fresh block above it, and remap the same source variable
// consistently within a group.
func TestNamespaceRemap(t *testing.T) {
	r := NewRecorder()
	n1 := r.Namespace(3)
	n2 := r.Namespace(3)

	n1.AddLemma([]int{1, -2, 4}) // 4 > common → fresh var (4)
	n1.AddLemma([]int{-4, 5})    // 4 again → same image; 5 → next fresh (5)... unless n2 interleaves
	n2.AddLemma([]int{3, 4})     // n2's 4 is a DIFFERENT solver's var → its own fresh image
	n1.AddLemma([]int{2, -4})    // stable mapping within n1

	var lemmas [][]int
	for _, s := range r.steps {
		lemmas = append(lemmas, s.lits)
	}
	if len(lemmas) != 4 {
		t.Fatalf("got %d lemmas, want 4", len(lemmas))
	}
	// Prefix vars 1..3 untouched, signs preserved.
	if lemmas[0][0] != 1 || lemmas[0][1] != -2 {
		t.Fatalf("prefix literals rewritten: %v", lemmas[0])
	}
	img1 := lemmas[0][2] // n1's image of 4
	if img1 <= 3 {
		t.Fatalf("above-prefix var not remapped above common: %v", lemmas[0])
	}
	if lemmas[1][0] != -img1 {
		t.Fatalf("n1's var 4 remapped inconsistently: %v vs image %d", lemmas[1], img1)
	}
	if lemmas[3][1] != -img1 {
		t.Fatalf("n1's var 4 drifted: %v vs image %d", lemmas[3], img1)
	}
	img2 := lemmas[2][1] // n2's image of 4
	if img2 == img1 || img2 <= 3 {
		t.Fatalf("namespaces collide: n1's 4→%d, n2's 4→%d", img1, img2)
	}
	if lemmas[2][0] != 3 {
		t.Fatalf("n2 prefix literal rewritten: %v", lemmas[2])
	}
}

// CubeClause negates the assignment named by the cube index, bit j of
// the index giving vars[j]'s polarity.
func TestCubeClausePolarity(t *testing.T) {
	vars := []int{7, 9}
	cases := [][]int{
		{7, 9},   // i=0: both false → clause asserts (7 ∨ 9)
		{-7, 9},  // i=1: bit0 set → 7 true → ¬7
		{7, -9},  // i=2
		{-7, -9}, // i=3
	}
	for i, want := range cases {
		if got := CubeClause(vars, i); !reflect.DeepEqual(got, want) {
			t.Errorf("CubeClause(%v, %d) = %v, want %v", vars, i, got, want)
		}
	}
	if got := CubeClause(nil, 0); len(got) != 0 {
		t.Errorf("empty cube clause: %v", got)
	}
}

// CubeTree enumerates every proper prefix assignment deepest-first:
// for k vars that is 2^(k-1) + ... + 2 clauses, ordered so each is RUP
// given the pair one level deeper.
func TestCubeTreeShape(t *testing.T) {
	if got := CubeTree([]int{1}); len(got) != 0 {
		t.Fatalf("1-var split needs no interior clauses, got %v", got)
	}
	got := CubeTree([]int{1, 2, 3})
	want := [][]int{
		// d=2: the four 2-prefix clauses
		{1, 2}, {-1, 2}, {1, -2}, {-1, -2},
		// d=1: the two 1-prefix clauses — conflicting units
		{1}, {-1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CubeTree = %v, want %v", got, want)
	}
}

// End-to-end shape of a merged cube refutation: per-cube UNSATs become
// CubeClause lemmas, CubeTree closes the split, and the standard
// backward checker replays the whole-space UNSAT.
func TestMergedCubeCertificateVerifies(t *testing.T) {
	// UNSAT over a,b,c: every polarity combination is excluded. No
	// premise is ever unit until BOTH cube vars are assigned, so the
	// cube clauses are each genuinely RUP under their cube assignment
	// while unit propagation alone derives nothing from the premises.
	var premises [][]int
	for m := 0; m < 8; m++ {
		premises = append(premises, CubeClause([]int{1, 2, 3}, m))
	}
	cubeVars := []int{1, 2}
	var lemmas [][]int
	// Each cube's worker reports UNSAT under its cube assumptions; its
	// refutation clause is RUP (propagating the negated clause makes
	// the two matching premises conflicting units on var 3).
	for i := 0; i < 4; i++ {
		lemmas = append(lemmas, CubeClause(cubeVars, i))
	}
	withTree := append(append([][]int{}, lemmas...), CubeTree(cubeVars)...)
	cert := NewCertificate(premises, nil, withTree)
	stats, err := cert.Verify()
	if err != nil {
		t.Fatalf("merged cube certificate rejected: %v", err)
	}
	if stats.Checked == 0 {
		t.Fatal("nothing checked")
	}

	// Without the resolution tree the empty clause is not RUP — the
	// cube clauses are all binary, so propagation never starts. The
	// tree is load-bearing, not decoration.
	if _, err := NewCertificate(premises, nil, lemmas).Verify(); err == nil {
		t.Fatal("certificate without the cube tree verified")
	}
}
