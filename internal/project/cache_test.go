package project

import (
	"testing"

	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/mc"
	"psketch/internal/sym"
	"psketch/internal/types"
)

// The cached encoder must agree with the one-shot Encode on every
// candidate for every trace: same refutations, same survivors. The two
// run on separate builders, so agreement is checked semantically via
// Eval rather than by Lit identity.
func TestCacheMatchesEncode(t *testing.T) {
	sk, p, l := pipeline(t, learnSrc, desugar.Options{})
	bad := make(desugar.Candidate, len(sk.Holes))
	res, err := mc.Check(l, bad, mc.Options{MaxTraces: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("expected counterexamples")
	}

	cb := circuit.NewBuilder()
	cHoles := sym.HoleInputs(cb, sk)
	cache := NewCache(cb, l, cHoles)

	assign := func(b *circuit.Builder, holes []circuit.Word, c desugar.Candidate) map[circuit.Lit]bool {
		m := map[circuit.Lit]bool{}
		for i, w := range holes {
			for j, lit := range w {
				m[lit] = (c.Value(i)>>uint(j))&1 == 1
			}
		}
		return m
	}
	cands := enumerate(sk)
	for ti, tr := range res.Traces {
		entries := Build(p, tr)
		cFail, err := cache.Encode(entries)
		if err != nil {
			t.Fatal(err)
		}
		eb := circuit.NewBuilder()
		eHoles := sym.HoleInputs(eb, sk)
		eFail, err := Encode(eb, l, eHoles, entries)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			got := cb.Eval(assign(cb, cHoles, c), cFail)
			want := eb.Eval(assign(eb, eHoles, c), eFail)
			if got != want {
				t.Fatalf("trace %d cand %v: cached=%v encode=%v", ti, c, got, want)
			}
		}
	}

	// Re-encoding the same traces must hit memoized prefixes and give
	// the identical Lit (same builder, deterministic hash-consing).
	hits := cache.Hits
	for _, tr := range res.Traces {
		entries := Build(p, tr)
		f1, err := cache.Encode(entries)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := cache.Encode(entries)
		if err != nil {
			t.Fatal(err)
		}
		if f1 != f2 {
			t.Fatalf("re-encode of identical trace changed the fail lit: %v vs %v", f1, f2)
		}
	}
	if cache.Hits <= hits {
		t.Fatalf("no cache hits on repeated traces: hits=%d misses=%d", cache.Hits, cache.Misses)
	}
	if cache.SavedEntries == 0 {
		t.Fatal("cache hits saved no entries")
	}
}

// enumerate lists every candidate of a sketch with only choice/const
// holes of known width (learnSrc has a single 1-bit choice per Incr).
func enumerate(sk *desugar.Sketch) []desugar.Candidate {
	cands := []desugar.Candidate{make(desugar.Candidate, len(sk.Holes))}
	for i, h := range sk.Holes {
		n := int64(1) << uint(h.Bits)
		var next []desugar.Candidate
		for _, c := range cands {
			for v := int64(0); v < n; v++ {
				cc := append(desugar.Candidate(nil), c...)
				cc[i] = v
				next = append(next, cc)
			}
		}
		cands = next
	}
	return cands
}

// The warm store evicts on Cache.SizeBytes, so it must count what the
// cache holds: the builder's arrays plus, for every memoized prefix,
// its key bytes and 4 bytes per literal of its state (every cell
// literal and one liveness literal per thread).
func TestCacheSizeBytes(t *testing.T) {
	sk, p, l := pipeline(t, learnSrc, desugar.Options{})
	bad := make(desugar.Candidate, len(sk.Holes))
	res, err := mc.Check(l, bad, mc.Options{MaxTraces: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("expected counterexamples")
	}
	// Cell literals, from the layout's types.
	width := func(tp types.Type) int64 {
		switch tp.Base {
		case types.Bool:
			return 1
		case types.Ref:
			bits := int64(1)
			for (1 << bits) < p.Arenas[tp.Struct]+1 {
				bits++
			}
			return bits
		}
		return int64(p.W)
	}
	var lits int64
	for _, g := range p.Globals {
		lits += int64(cells(g.Type)) * width(g.Type.Elem())
	}
	for _, st := range p.Structs {
		for _, f := range st.Info.Fields {
			lits += int64(st.Arena) * width(f.Type)
		}
	}
	for _, seq := range p.Seqs() {
		for _, v := range seq.Locals {
			lits += int64(cells(v.Type)) * width(v.Type.Elem())
		}
	}
	perState := 4 * (lits + int64(p.NumThreads()))

	cb := circuit.NewBuilder()
	cache := NewCache(cb, l, sym.HoleInputs(cb, sk))
	if got := cache.base.SizeBytes(); got != 4*lits {
		t.Fatalf("snapshot SizeBytes = %d, want 4 × %d cell literals", got, lits)
	}
	for ti, tr := range res.Traces {
		if _, err := cache.Encode(Build(p, tr)); err != nil {
			t.Fatal(err)
		}
		var want int64
		for key := range cache.snaps {
			want += int64(len(key)) + perState
		}
		if got := cache.SizeBytes() - cb.SizeBytes(); got != want {
			t.Fatalf("trace %d: %d prefixes hold %d bytes, want %d", ti, len(cache.snaps), got, want)
		}
		// The builder's share is its node array (8 bytes a node) and a
		// hash-cons table of at least two 4-byte slots a node.
		if min := 16 * int64(cb.NumNodes()); cb.SizeBytes() < min {
			t.Fatalf("trace %d: builder SizeBytes %d below %d for %d nodes", ti, cb.SizeBytes(), min, cb.NumNodes())
		}
	}
	if len(cache.snaps) == 0 {
		t.Fatal("no prefix was memoized")
	}
}

func cells(tp types.Type) int {
	if tp.IsArray() {
		return tp.Len
	}
	return 1
}
