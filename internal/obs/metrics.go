package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is one named atomic metric. A nil *Counter is valid and
// inert, so callers can hold handles unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Set stores v (used for point-in-time gauges like the current
// iteration number, which overwrite rather than accumulate).
func (c *Counter) Set(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Max raises the counter to v if v is larger (peak gauges, e.g. heap
// high-water marks).
func (c *Counter) Max(v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get returns the current value (0 on a nil counter).
func (c *Counter) Get() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// HighWaterCounters names the registry counters that record peaks
// rather than sums. Code that folds one registry into another — a bench
// sweep merging each row's private registry into its own — must Max
// these and Add the rest, or a four-row sweep would report four times
// the real heap high-water.
var HighWaterCounters = map[string]bool{
	"heap.max_bytes":   true,
	"mc.visited_bytes": true,
	"sat.vars":         true,
	"sat.clauses":      true,
}

// Metrics is a registry of named counters: get-or-create by name, then
// update lock-free. The expvar-style Snapshot serializes a consistent-
// enough view for the debug endpoint and the journal trailer. A nil
// *Metrics is valid: Counter returns nil and Snapshot is empty.
type Metrics struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{m: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it at zero on first use.
// The returned handle is stable — fetch once, update forever.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c := m.m[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.m[name]; c == nil {
		c = &Counter{}
		m.m[name] = c
	}
	return c
}

// Snapshot returns every counter's current value.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]int64, len(m.m))
	for name, c := range m.m {
		out[name] = c.Get()
	}
	return out
}

// Do calls f for every counter in name order (expvar.Do's shape).
func (m *Metrics) Do(f func(name string, v int64)) {
	snap := m.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f(name, snap[name])
	}
}
