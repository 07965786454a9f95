// Package obs is the engine's structured-observability layer: a
// low-overhead hierarchical span tracer and an atomic-counter metrics
// registry, feeding pluggable sinks (a JSONL run-journal writer, an
// in-memory flight recorder, a debug HTTP endpoint).
//
// The paper's Figure 9 reports only end-of-run aggregates; this package
// is what lets a run answer "where did this 40 s synthesis go?" across
// the CEGIS loop, the SAT portfolio and the sharded model checker. cmd/psktrace renders and diffs the journals it produces.
//
// # Cost model
//
// Everything here is built around a nil fast path: a nil *Tracer (and a
// nil *Metrics, and a nil *Counter) is fully functional and does
// nothing. Span is a value type, so starting and ending a span against
// a nil tracer performs no allocation and no atomic operation; hot
// loops additionally guard their attribute construction behind
// Span.Active / an explicit tracer nil check, so the model checker's
// inner DFS pays zero extra allocations when tracing is off (verified
// by the alloc-tracked benchmarks in bench_test.go).
//
// # Concurrency contract
//
// A Tracer may be shared freely: Start/End are safe from any goroutine
// (span IDs come from one atomic counter) and every Sink shipped here
// serializes Emit internally — the portfolio's solver workers and the
// model checker's shard workers emit concurrently. Counters are single
// atomics.
package obs

import (
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one tracer's lifetime. 0 is "no
// span" (the root parent, and the ID of every span of a nil tracer).
type SpanID uint64

// Attr is one span attribute: a key with either an int64 or a string
// value (IsStr selects). Keeping the value unboxed avoids interface
// allocations on the emit path.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// Int makes an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// Str makes a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// SpanRecord is a finished span as delivered to sinks and stored in
// journals: times are nanoseconds relative to the tracer's epoch, so
// records from one run are directly comparable.
type SpanRecord struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  int64 // ns since tracer epoch
	Dur    int64 // ns
	Attrs  []Attr
}

// Attr returns the named attribute and whether it is present.
func (r *SpanRecord) Attr(key string) (Attr, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// IntAttr returns the named integer attribute (0 when absent).
func (r *SpanRecord) IntAttr(key string) int64 {
	a, _ := r.Attr(key)
	return a.Int
}

// StrAttr returns the named string attribute ("" when absent).
func (r *SpanRecord) StrAttr(key string) string {
	a, _ := r.Attr(key)
	return a.Str
}

// Sink receives finished spans. Implementations must be safe for
// concurrent Emit (workers end spans from their own goroutines).
type Sink interface {
	Emit(rec SpanRecord)
}

// Tracer hands out hierarchical spans and emits them to a sink. A nil
// Tracer is valid and free: Start returns an inactive Span whose End
// is a no-op.
type Tracer struct {
	sink  Sink
	epoch time.Time
	next  atomic.Uint64
}

// NewTracer builds a tracer emitting to sink (which must not be nil;
// use a nil *Tracer to disable tracing).
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink, epoch: time.Now()}
}

// Epoch returns the tracer's time origin (span Start values are
// nanoseconds since it).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Span is an in-flight span. It is a value: copy it freely, end it
// exactly once. The zero Span (and any span from a nil tracer) is
// inactive.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  int64
}

// Start opens a span under parent (SpanID 0 for a root). On a nil
// tracer it returns an inactive span at zero cost.
func (t *Tracer) Start(name string, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tr:     t,
		id:     SpanID(t.next.Add(1)),
		parent: parent,
		name:   name,
		start:  int64(time.Since(t.epoch)),
	}
}

// Active reports whether the span will be emitted. Guard attribute
// construction with it in hot paths.
func (s Span) Active() bool { return s.tr != nil }

// ID returns the span's ID (0 when inactive), for parenting children.
func (s Span) ID() SpanID { return s.id }

// End finishes the span and emits it with the given attributes. No-op
// when inactive.
func (s Span) End(attrs ...Attr) {
	if s.tr == nil {
		return
	}
	s.tr.sink.Emit(SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    int64(time.Since(s.tr.epoch)) - s.start,
		Attrs:  attrs,
	})
}

// EndDur finishes the span with an externally measured duration
// (nanoseconds). The CEGIS loop uses this so the span duration and the
// metrics-registry counter it feeds are the same measurement, making
// journal totals and Stats agree exactly.
func (s Span) EndDur(dur time.Duration, attrs ...Attr) {
	if s.tr == nil {
		return
	}
	s.tr.sink.Emit(SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    int64(dur),
		Attrs:  attrs,
	})
}

// multiSink fans Emit out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(rec SpanRecord) {
	for _, s := range m {
		s.Emit(rec)
	}
}

// MultiSink combines sinks; nil entries are dropped. Returns nil when
// nothing remains (so the caller can pass the result straight to
// NewTracer or skip tracing).
func MultiSink(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
