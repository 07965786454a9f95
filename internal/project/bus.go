package project

import "sync"

// Bus broadcasts projected counterexample traces between CEGIS workers
// exploring disjoint cubes of one candidate space (internal/cube). A
// projected trace is a fact about the ENTIRE space — Build quantifies
// over the candidate, never a single one (see the package comment) —
// so any cube may install every other cube's projections as inductive
// constraints. The exchange ships semantic projections ([]Entry), not
// CNF: each cube re-encodes an imported projection through its own
// builder/cache, because Tseitin variable numbering above the shared
// setup prefix diverges per cube.
//
// The bus is unbounded (unlike sat.Bus's clause ring): there are at
// most MaxIterations × TracesPerIteration projections per cube per
// run, every one of them is expensive model-checker output worth
// keeping, and batches are immutable after Publish, so a late consumer
// — a cube worker started by stealing — replays the full history from
// cursor zero.
type Bus struct {
	mu      sync.Mutex
	batches []Batch
}

// Batch is one published projection, tagged with the cube that
// discovered it so the origin never reimports its own work.
type Batch struct {
	Origin  int
	Entries []Entry
}

// NewBus returns an empty exchange.
func NewBus() *Bus { return &Bus{} }

// Publish broadcasts one projected trace. The entries are copied.
func (b *Bus) Publish(origin int, entries []Entry) {
	cp := append([]Entry(nil), entries...)
	b.mu.Lock()
	b.batches = append(b.batches, Batch{Origin: origin, Entries: cp})
	b.mu.Unlock()
}

// Fetch returns the batches published at positions [from, len) that
// did not originate from self, plus the new cursor. The returned
// batches are immutable and may be retained.
func (b *Bus) Fetch(from, self int) ([]Batch, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	next := len(b.batches)
	var out []Batch
	for _, batch := range b.batches[from:next] {
		if batch.Origin != self {
			out = append(out, batch)
		}
	}
	return out, next
}

// Len returns the total number of batches ever published.
func (b *Bus) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.batches)
}
