package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Span and attribute names shared between the emitting packages
// (core, sat, mc, project, bench) and the consumers (psktrace, tests).
// Keeping them here keeps the journal vocabulary in one place.
const (
	// AttrPhase tags a span with the Stats phase its duration feeds:
	// every nanosecond counted into Stats.SSolve/SModel/VSolve/VModel
	// is covered by exactly one span carrying this attribute, which is
	// what makes journal phase totals and Stats agree.
	AttrPhase = "phase"

	PhaseSSolve = "ssolve"
	PhaseSModel = "smodel"
	PhaseVSolve = "vsolve"
	PhaseVModel = "vmodel"

	SpanBenchRun  = "bench.run"       // one benchmark row (attrs: bench, test)
	SpanIteration = "cegis.iteration" // one CEGIS iteration (attr: iter)
)

// PhaseCounter maps a phase tag to the metrics-registry counter that
// accumulates the same nanoseconds ("ssolve" -> "cegis.ssolve_ns").
func PhaseCounter(phase string) string { return "cegis." + phase + "_ns" }

// Phases lists the phase tags in presentation order.
var Phases = []string{PhaseSSolve, PhaseSModel, PhaseVSolve, PhaseVModel}

// index maps span IDs to records.
func (j *Journal) index() map[SpanID]*SpanRecord {
	idx := make(map[SpanID]*SpanRecord, len(j.Spans))
	for i := range j.Spans {
		idx[j.Spans[i].ID] = &j.Spans[i]
	}
	return idx
}

// children builds the parent -> children adjacency. Spans whose parent
// is unknown (0, or evicted from a flight-recorder ring) hang off 0.
func (j *Journal) children() map[SpanID][]*SpanRecord {
	idx := j.index()
	ch := make(map[SpanID][]*SpanRecord, len(j.Spans))
	for i := range j.Spans {
		r := &j.Spans[i]
		p := r.Parent
		if _, ok := idx[p]; !ok {
			p = 0
		}
		ch[p] = append(ch[p], r)
	}
	for _, rs := range ch {
		sort.Slice(rs, func(a, b int) bool {
			if rs[a].Start != rs[b].Start {
				return rs[a].Start < rs[b].Start
			}
			return rs[a].ID < rs[b].ID
		})
	}
	return ch
}

// PhaseTotals sums phase-tagged span durations over the whole journal.
func (j *Journal) PhaseTotals() map[string]int64 {
	totals := map[string]int64{}
	for i := range j.Spans {
		if p := j.Spans[i].StrAttr(AttrPhase); p != "" {
			totals[p] += j.Spans[i].Dur
		}
	}
	return totals
}

// treeNode aggregates spans sharing a name path from the root.
type treeNode struct {
	name     string
	total    int64
	count    int64
	children map[string]*treeNode
}

func (n *treeNode) child(name string) *treeNode {
	if n.children == nil {
		n.children = map[string]*treeNode{}
	}
	c := n.children[name]
	if c == nil {
		c = &treeNode{name: name}
		n.children[name] = c
	}
	return c
}

// tree folds every span into a name-path aggregation.
func (j *Journal) tree() *treeNode {
	ch := j.children()
	root := &treeNode{}
	var walk func(id SpanID, at *treeNode)
	walk = func(id SpanID, at *treeNode) {
		for _, r := range ch[id] {
			n := at.child(r.Name)
			n.total += r.Dur
			n.count++
			walk(r.ID, n)
		}
	}
	walk(0, root)
	return root
}

// fmtNS renders nanoseconds compactly and deterministically.
func fmtNS(ns int64) string {
	if ns < 0 {
		return "-" + fmtNS(-ns)
	}
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Summarize renders the journal: phase totals cross-checked against
// the metrics trailer, the aggregated time tree, the per-iteration
// table, and the topN hottest span names.
func Summarize(w io.Writer, j *Journal, topN int) {
	fmt.Fprintf(w, "journal: %d span(s)\n", len(j.Spans))

	// Phase totals vs the metrics registry trailer.
	totals := j.PhaseTotals()
	if len(totals) > 0 {
		fmt.Fprintf(w, "\n== phase totals (span time vs metrics registry) ==\n")
		fmt.Fprintf(w, "%-8s %10s %10s %8s\n", "phase", "spans", "metrics", "drift")
		for _, p := range Phases {
			st, ok := totals[p]
			if !ok {
				continue
			}
			ms, mok := int64(0), false
			if j.Metrics != nil {
				ms, mok = j.Metrics[PhaseCounter(p)]
			}
			drift := "-"
			mcol := "-"
			if mok {
				mcol = fmtNS(ms)
				if ms > 0 {
					drift = fmt.Sprintf("%+.1f%%", 100*float64(st-ms)/float64(ms))
				}
			}
			fmt.Fprintf(w, "%-8s %10s %10s %8s\n", p, fmtNS(st), mcol, drift)
		}
	}

	// Aggregated time tree.
	fmt.Fprintf(w, "\n== time tree ==\n")
	fmt.Fprintf(w, "%10s %6s %10s  %s\n", "total", "count", "avg", "span")
	var render func(n *treeNode, depth int)
	render = func(n *treeNode, depth int) {
		kids := make([]*treeNode, 0, len(n.children))
		for _, c := range n.children {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(a, b int) bool {
			if kids[a].total != kids[b].total {
				return kids[a].total > kids[b].total
			}
			return kids[a].name < kids[b].name
		})
		for _, c := range kids {
			fmt.Fprintf(w, "%10s %6d %10s  %s%s\n",
				fmtNS(c.total), c.count, fmtNS(c.total/c.count),
				strings.Repeat("  ", depth), c.name)
			render(c, depth+1)
		}
	}
	render(j.tree(), 0)

	// Per-iteration table.
	iters := IterationRows(j)
	if len(iters) > 0 {
		cols := iterationColumns(iters)
		fmt.Fprintf(w, "\n== per-iteration table ==\n")
		fmt.Fprintf(w, "%5s %10s", "iter", "total")
		for _, c := range cols {
			fmt.Fprintf(w, " %10s", strings.TrimPrefix(c, "cegis."))
		}
		fmt.Fprintf(w, " %8s %7s\n", "states", "traces")
		for _, it := range iters {
			fmt.Fprintf(w, "%5d %10s", it.Iter, fmtNS(it.Total))
			for _, c := range cols {
				if d, ok := it.Children[c]; ok {
					fmt.Fprintf(w, " %10s", fmtNS(d))
				} else {
					fmt.Fprintf(w, " %10s", "-")
				}
			}
			fmt.Fprintf(w, " %8d %7d\n", it.States, it.Traces)
		}
	}

	// Hottest span names.
	type hot struct {
		name  string
		total int64
		count int64
	}
	byName := map[string]*hot{}
	for i := range j.Spans {
		r := &j.Spans[i]
		h := byName[r.Name]
		if h == nil {
			h = &hot{name: r.Name}
			byName[r.Name] = h
		}
		h.total += r.Dur
		h.count++
	}
	hots := make([]*hot, 0, len(byName))
	for _, h := range byName {
		hots = append(hots, h)
	}
	sort.Slice(hots, func(a, b int) bool {
		if hots[a].total != hots[b].total {
			return hots[a].total > hots[b].total
		}
		return hots[a].name < hots[b].name
	})
	if topN > len(hots) {
		topN = len(hots)
	}
	if topN > 0 {
		fmt.Fprintf(w, "\n== top %d spans by total time ==\n", topN)
		fmt.Fprintf(w, "%10s %6s %10s  %s\n", "total", "count", "avg", "name")
		for _, h := range hots[:topN] {
			fmt.Fprintf(w, "%10s %6d %10s  %s\n", fmtNS(h.total), h.count, fmtNS(h.total/h.count), h.name)
		}
	}
}

// IterRow is one row of the per-iteration table.
type IterRow struct {
	Iter     int64
	Total    int64            // iteration span duration, ns
	Children map[string]int64 // direct-child durations summed by name
	States   int64            // "states" attr (model-checker states)
	Traces   int64            // "traces" attr (counterexamples learned)
}

// IterationRows extracts the cegis.iteration spans in iteration order.
func IterationRows(j *Journal) []IterRow {
	ch := j.children()
	var rows []IterRow
	for i := range j.Spans {
		r := &j.Spans[i]
		if r.Name != SpanIteration {
			continue
		}
		row := IterRow{
			Iter:     r.IntAttr("iter"),
			Total:    r.Dur,
			Children: map[string]int64{},
			States:   r.IntAttr("states"),
			Traces:   r.IntAttr("traces"),
		}
		for _, c := range ch[r.ID] {
			row.Children[c.Name] += c.Dur
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Iter < rows[b].Iter })
	return rows
}

// iterationColumns picks the child-span columns of the iteration
// table: preferred CEGIS phases first, any others alphabetically.
func iterationColumns(rows []IterRow) []string {
	preferred := []string{"cegis.solve", "cegis.verify", "cegis.project"}
	seen := map[string]bool{}
	for _, r := range rows {
		for name := range r.Children {
			seen[name] = true
		}
	}
	var cols []string
	for _, p := range preferred {
		if seen[p] {
			cols = append(cols, p)
			delete(seen, p)
		}
	}
	rest := make([]string, 0, len(seen))
	for name := range seen {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(cols, rest...)
}

// Diff renders the old-vs-new comparison of two journals: aggregated
// tree paths whose totals moved, then changed metrics counters.
func Diff(w io.Writer, old, new *Journal) {
	type flat struct {
		path     string
		oldTotal int64
		newTotal int64
	}
	paths := map[string]*flat{}
	var collect func(n *treeNode, prefix string, isNew bool)
	collect = func(n *treeNode, prefix string, isNew bool) {
		for _, c := range n.children {
			p := prefix + c.name
			f := paths[p]
			if f == nil {
				f = &flat{path: p}
				paths[p] = f
			}
			if isNew {
				f.newTotal += c.total
			} else {
				f.oldTotal += c.total
			}
			collect(c, p+" > ", isNew)
		}
	}
	collect(old.tree(), "", false)
	collect(new.tree(), "", true)

	flats := make([]*flat, 0, len(paths))
	for _, f := range paths {
		flats = append(flats, f)
	}
	sort.Slice(flats, func(a, b int) bool {
		da, db := abs64(flats[a].newTotal-flats[a].oldTotal), abs64(flats[b].newTotal-flats[b].oldTotal)
		if da != db {
			return da > db
		}
		return flats[a].path < flats[b].path
	})
	fmt.Fprintf(w, "== tree diff (old -> new) ==\n")
	fmt.Fprintf(w, "%10s %10s %10s %7s  %s\n", "old", "new", "delta", "ratio", "span path")
	for _, f := range flats {
		ratio := "-"
		if f.oldTotal > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(f.newTotal)/float64(f.oldTotal))
		}
		fmt.Fprintf(w, "%10s %10s %10s %7s  %s\n",
			fmtNS(f.oldTotal), fmtNS(f.newTotal), fmtNS(f.newTotal-f.oldTotal), ratio, f.path)
	}

	if old.Metrics != nil || new.Metrics != nil {
		names := map[string]bool{}
		for k := range old.Metrics {
			names[k] = true
		}
		for k := range new.Metrics {
			names[k] = true
		}
		keys := make([]string, 0, len(names))
		for k := range names {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "\n== metrics diff ==\n")
		fmt.Fprintf(w, "%14s %14s %14s  %s\n", "old", "new", "delta", "counter")
		for _, k := range keys {
			o, n := old.Metrics[k], new.Metrics[k]
			if o == n {
				continue
			}
			fmt.Fprintf(w, "%14d %14d %+14d  %s\n", o, n, n-o, k)
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
