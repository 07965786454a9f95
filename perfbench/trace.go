package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"psketch/internal/obs"
)

// recorder is the traced run's in-memory span sink. Spans stay in
// memory until the run ends, so writing them never lands inside a timed
// region.
type recorder struct {
	tr    *obs.Tracer
	mu    sync.Mutex
	spans []obs.SpanRecord
}

func newRecorder() *recorder {
	r := &recorder{}
	r.tr = obs.NewTracer(r)
	return r
}

// tracer is the tracer feeding r; nil, which disables tracing, for a
// nil recorder.
func (r *recorder) tracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

func (r *recorder) Emit(rec obs.SpanRecord) {
	r.mu.Lock()
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []obs.SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.SpanRecord(nil), r.spans...)
}

// writeJournal writes every recorded span to path as a psktrace-readable
// JSONL journal.
func (r *recorder) writeJournal(path string, meta map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	js := obs.NewJournalSink(f, meta)
	for _, rec := range r.snapshot() {
		js.Emit(rec)
	}
	if err := js.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// Layers a span's self time is charged to.
const (
	layerFrontend = "frontend"
	layerIR       = "ir"
	layerProject  = "project"
	layerSAT      = "sat"
	layerMC       = "mc"
	layerDRAT     = "drat"
	layerCore     = "core"
	layerService  = "service"
)

// spanLayer maps a span name to its layer. The benchmark's own spans
// are bench.*; the rest are the engine's. jobLayer takes the self time
// of the bench.job span, which is the part of the wrapped library call
// no finer span covers.
func spanLayer(name, jobLayer string) string {
	switch {
	case name == "bench.job":
		return jobLayer
	case name == "bench.compile":
		return layerFrontend
	case strings.HasPrefix(name, "bench.http."):
		return layerService
	case name == "setup.lower":
		return layerIR
	case name == "setup.encode", name == "cegis.project", name == "verify.encode",
		strings.HasPrefix(name, "project."):
		return layerProject
	case name == "cegis.solve", name == "verify.solve", strings.HasPrefix(name, "sat."):
		return layerSAT
	case name == "cegis.verify", strings.HasPrefix(name, "mc."):
		return layerMC
	case strings.HasPrefix(name, "proof."):
		return layerDRAT
	}
	return layerCore
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []obs.SpanRecord, jobLayer string) map[string]time.Duration {
	kids := map[obs.SpanID][]obs.SpanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := s.Dur - covered(s, kids[s.ID])
		if self < 0 {
			self = 0
		}
		out[spanLayer(s.Name, jobLayer)] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent obs.SpanRecord, children []obs.SpanRecord) int64 {
	type iv struct{ lo, hi int64 }
	lo, hi := parent.Start, parent.Start+parent.Dur
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.Start+c.Dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// spanTotals are the engine-span attributes the per-layer report reads:
// SAT work, POR pruning, and model-checker time split by verdict.
type spanTotals struct {
	satDecisions, satPropagations int64
	porPruned                     int64
	mcRefute, mcVerify            time.Duration
}

func sumSpans(spans []obs.SpanRecord) spanTotals {
	var t spanTotals
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "sat.solve":
			t.satDecisions += s.IntAttr("decisions")
			t.satPropagations += s.IntAttr("propagations")
		case "mc.check":
			t.porPruned += s.IntAttr("por_pruned")
			if s.IntAttr("ok") == 1 {
				t.mcVerify += time.Duration(s.Dur)
			} else {
				t.mcRefute += time.Duration(s.Dur)
			}
		}
	}
	return t
}
