package project

import (
	"psketch/internal/circuit"
	"psketch/internal/obs"
	"psketch/internal/state"
	"psketch/internal/sym"
)

// cacheCap bounds the number of memoized prefix states. Counterexample
// traces within and across CEGIS iterations share long prefixes (the
// scheduler diverges late), so even a modest cap hits constantly; on
// overflow the whole table is dropped and rebuilt from the live traces.
const cacheCap = 4096

// cachedState is the machine + control state after encoding some
// projected-entry prefix.
type cachedState struct {
	sym sym.Snapshot
	st  encState
}

// sizeBytes is the state's retained memory: 4 bytes per literal of the
// cell snapshot and of the per-thread liveness.
func (cs *cachedState) sizeBytes() int64 {
	return cs.sym.SizeBytes() + 4*int64(len(cs.st.threadActive))
}

// Cache memoizes projection encodings per trace-entry prefix on a
// shared hash-consed builder. Traces of one iteration (and of later
// iterations) overlap heavily in their projected prefixes; restoring a
// snapshot skips the symbolic re-execution of the shared prefix, and —
// because the builder hash-conses and the restored cells hold exactly
// the literals a re-execution would rebuild — the resulting failure
// literal is bit-for-bit the one the uncached Encode returns.
//
// A Cache is single-goroutine (it owns one persistent evaluator); the
// synthesizer calls it only from the projection step.
type Cache struct {
	b         *circuit.Builder
	l         *state.Layout
	e         *sym.Evaluator
	base      sym.Snapshot // state after GlobalInit + Prologue
	snaps     map[string]cachedState
	snapBytes int64 // retained bytes of snaps: key bytes + sizeBytes

	// Hits counts Encode calls that restored at least one entry;
	// Misses counts calls replayed from the base state. SavedEntries
	// totals the projected entries skipped via restore.
	Hits, Misses, SavedEntries int64

	// Tracer, when set, emits one "project.encode" span per Encode
	// under Parent (the synthesizer repoints Parent at the current
	// iteration's projection span). Nil costs nothing.
	Tracer *obs.Tracer
	Parent obs.SpanID
}

// NewCache builds a cache bound to a builder/layout/holes triple. The
// global-init and prologue are evaluated once, here.
func NewCache(b *circuit.Builder, l *state.Layout, holes []circuit.Word) *Cache {
	e := sym.New(b, l, holes)
	e.RunSeq(l.Prog.GlobalInit, circuit.True)
	e.RunSeq(l.Prog.Prologue, circuit.True)
	return &Cache{
		b:     b,
		l:     l,
		e:     e,
		base:  e.Snapshot(),
		snaps: make(map[string]cachedState),
	}
}

// prefixKeys packs entries into per-prefix byte-string keys: keys[i]
// identifies the encoding of entries[0..i] and is the 4(i+1)-byte
// prefix of one shared string. The key folds in each entry's lookahead
// bit: the encoding of a conditional entry depends on whether any later
// entry belongs to another thread, so two traces with equal prefix
// entries but different suffixes may still encode the prefix
// differently — the flag keeps such prefixes apart.
func prefixKeys(entries []Entry, others []bool) []string {
	buf := make([]byte, 0, 4*len(entries))
	for i, en := range entries {
		var flags byte
		if en.Deadlock {
			flags |= 1
		}
		if others[i] {
			flags |= 2
		}
		buf = append(buf, byte(en.Thread), byte(en.Step), byte(en.Step>>8), flags)
	}
	all := string(buf)
	keys := make([]string, len(entries))
	for i := range keys {
		keys[i] = all[:4*(i+1)]
	}
	return keys
}

// Encode is Encode (package function) with prefix memoization. The
// returned literal is identical to the uncached encoding's.
func (c *Cache) Encode(entries []Entry) (circuit.Lit, error) {
	sp := c.Tracer.Start("project.encode", c.Parent)
	others := lookahead(entries)
	keys := prefixKeys(entries, others)

	// Longest memoized prefix wins.
	start := 0
	st := newEncState(c.l.Prog.NumThreads())
	c.e.Restore(c.base)
	for i := len(entries); i >= 1; i-- {
		if cs, ok := c.snaps[keys[i-1]]; ok {
			c.e.Restore(cs.sym)
			st = cs.st.clone()
			start = i
			break
		}
	}
	if start > 0 {
		c.Hits++
		c.SavedEntries += int64(start)
	} else {
		c.Misses++
	}

	for i := start; i < len(entries); i++ {
		applyEntry(c.b, c.e, c.l.Prog, &st, entries[i], others[i])
		if c.e.Err() != nil {
			break
		}
		if _, ok := c.snaps[keys[i]]; !ok {
			if len(c.snaps) >= cacheCap {
				c.snaps = make(map[string]cachedState)
				c.snapBytes = 0
			}
			cs := cachedState{sym: c.e.Snapshot(), st: st.clone()}
			c.snaps[keys[i]] = cs
			c.snapBytes += int64(len(keys[i])) + cs.sizeBytes()
		}
	}
	// finishEncode mutates the evaluator past the last snapshot; that
	// is fine — every later Encode starts from a Restore.
	lit, err := finishEncode(c.b, c.e, c.l.Prog, &st)
	if sp.Active() {
		sp.End(obs.Int("entries", int64(len(entries))),
			obs.Int("restored", int64(start)),
			obs.Int("hit", hitFlag(start)))
	}
	return lit, err
}

// SizeBytes returns the cache's retained memory: the shared builder's
// arrays (the encoded clauses) plus every memoized prefix's key and
// state. The warm-state store (Store) evicts on it.
func (c *Cache) SizeBytes() int64 {
	return c.b.SizeBytes() + c.snapBytes
}

func hitFlag(start int) int64 {
	if start > 0 {
		return 1
	}
	return 0
}
