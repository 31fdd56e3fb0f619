package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer. Root spans are the benchmark's own
// rounds (and micro-row calls); every other span is a leaf whose parent is
// the round open when it started, so all spans of a round share its id.
type span struct {
	id, parent int64
	round      int64
	layer      string
	name       string
	node       int // -1 when the call is not node-scoped
	bytes      int
	start, end int64 // nanoseconds since the recorder epoch
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. Decorators attribute
// their calls to the round currently open; calls outside any round
// (set-up, failure injection, checks) are not recorded. Leaf attribution
// assumes one open round at a time, as in the library workloads; the
// daemon workload's two concurrent clients open rounds with no leaves.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	round  atomic.Int64 // id of the open round span, 0 when none

	mu    sync.Mutex
	spans []span
	roots map[int64]int // root span id -> index in spans
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), roots: make(map[int64]int)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a round span and attributes later leaf spans to it.
func (r *recorder) open(layer, name string) int64 {
	id := r.nextID.Add(1)
	r.mu.Lock()
	i := len(r.spans)
	r.roots[id] = i
	r.spans = append(r.spans, span{id: id, round: id, layer: layer, name: name, node: -1})
	// The start is taken after the bookkeeping (an append can copy the
	// whole span list), so the round's duration holds none of it.
	r.spans[i].start = r.now()
	r.mu.Unlock()
	r.round.Store(id)
	return id
}

// close ends the round span id.
func (r *recorder) close(id int64) {
	end := r.now()
	r.round.CompareAndSwap(id, 0)
	r.mu.Lock()
	r.spans[r.roots[id]].end = end
	r.mu.Unlock()
}

// leaf records a call that started at start (from now()) under the open
// round; it is dropped when no round is open.
func (r *recorder) leaf(layer, name string, node, bytes int, start int64) {
	round := r.round.Load()
	if round == 0 {
		return
	}
	s := span{id: r.nextID.Add(1), parent: round, round: round, layer: layer, name: name,
		node: node, bytes: bytes, start: start, end: r.now()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as its own root span (a micro-row call).
func (r *recorder) timed(layer, name string, fn func() error) (time.Duration, error) {
	id := r.open(layer, name)
	err := fn()
	r.close(id)
	r.mu.Lock()
	d := time.Duration(r.spans[r.roots[id]].dur())
	r.mu.Unlock()
	return d, err
}

// roundStats is the attribution of one root span.
type roundStats struct {
	root   span
	selfMs map[string]float64 // layer -> self time
	nameMs map[string]float64 // "layer.name" -> summed leaf time
	leaves int
}

// attribute computes per-round self time: a root's self time is its
// duration minus the union of its children's intervals; leaves have no
// children, so their self time is their duration (summed across
// concurrent goroutines, so it can exceed the round's wall time).
func (r *recorder) attribute() []roundStats {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	byRoot := make(map[int64][]span)
	var roots []span
	for _, s := range spans {
		if s.parent == 0 {
			roots = append(roots, s)
			continue
		}
		byRoot[s.parent] = append(byRoot[s.parent], s)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].start < roots[j].start })
	out := make([]roundStats, 0, len(roots))
	for _, root := range roots {
		st := roundStats{root: root, selfMs: map[string]float64{}, nameMs: map[string]float64{}}
		kids := byRoot[root.id]
		st.leaves = len(kids)
		var iv [][2]int64
		for _, k := range kids {
			d := float64(k.dur()) / 1e6
			st.selfMs[k.layer] += d
			st.nameMs[k.layer+"."+k.name] += d
			lo, hi := max(k.start, root.start), min(k.end, root.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		st.selfMs[root.layer] += float64(root.dur()-union(iv)) / 1e6
		out = append(out, st)
	}
	return out
}

// union returns the total length covered by a set of intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerMedians returns, per layer, the median over root spans named
// rootName of that layer's self time in the round.
func layerMedians(stats []roundStats, rootName string) map[string]float64 {
	per := make(map[string]samples)
	n := 0
	for _, st := range stats {
		if st.root.name != rootName {
			continue
		}
		n++
		for layer, v := range st.selfMs {
			per[layer] = append(per[layer], v)
		}
	}
	out := make(map[string]float64, len(per))
	for layer, s := range per {
		// Rounds where a layer made no call count as zero.
		for len(s) < n {
			s = append(s, 0)
		}
		out[layer] = s.quantile(0.5)
	}
	return out
}

// nameMedian returns the median over rounds named rootName of the summed
// time of leaf spans "layer.name".
func nameMedian(stats []roundStats, rootName, leaf string) float64 {
	var s samples
	for _, st := range stats {
		if st.root.name == rootName {
			s = append(s, st.nameMs[leaf])
		}
	}
	return s.quantile(0.5)
}

// traceEvent is one Chrome trace_event entry, in the shape
// eccheck.WriteFlightTrace emits so Perfetto opens both the same way.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// maxWrittenSpans caps the trace file; attribution always uses every span.
const maxWrittenSpans = 60000

// writeTrace writes the spans as Chrome trace_event JSON: pid 0 holds the
// rounds and micro-row calls, pid node+1 holds one node's transport and
// host-store calls, and each layer.name gets its own thread lane.
func (r *recorder) writeTrace(w io.Writer) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	type lane struct{ pid, tid int }
	tids := map[string]int{}
	seen := map[lane]string{}
	var events []traceEvent
	for _, s := range spans {
		pid := s.node + 1
		laneName := s.layer + "." + s.name
		if s.parent == 0 {
			pid, laneName = 0, s.layer
		}
		tid, ok := tids[laneName]
		if !ok {
			tid = len(tids) + 1
			tids[laneName] = tid
		}
		seen[lane{pid, tid}] = laneName
		args := map[string]any{"round": s.round, "span": s.id, "layer": s.layer}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		if s.bytes > 0 {
			args["bytes"] = s.bytes
		}
		events = append(events, traceEvent{Name: s.layer + "." + s.name, Phase: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, PID: pid, TID: tid, Args: args})
	}
	lanes := make([]lane, 0, len(seen))
	for l := range seen {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})
	var meta []traceEvent
	named := map[int]bool{}
	for _, l := range lanes {
		if !named[l.pid] {
			named[l.pid] = true
			pname := "rounds"
			if l.pid > 0 {
				pname = fmt.Sprintf("node %d", l.pid-1)
			}
			meta = append(meta, traceEvent{Name: "process_name", Phase: "M", PID: l.pid,
				Args: map[string]any{"name": pname}})
		}
		meta = append(meta, traceEvent{Name: "thread_name", Phase: "M", PID: l.pid, TID: l.tid,
			Args: map[string]any{"name": seen[l]}})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(traceFile{TraceEvents: append(meta, events...), DisplayTimeUnit: "ns"}); err != nil {
		return err
	}
	return bw.Flush()
}

// selfTable renders the per-layer self-time table for every root kind.
func selfTable(stats []roundStats) string {
	type agg struct {
		rounds int
		spans  int
		self   map[string]samples
	}
	kinds := map[string]*agg{}
	var order []string
	for _, st := range stats {
		key := st.root.layer + "." + st.root.name
		a, ok := kinds[key]
		if !ok {
			a = &agg{self: map[string]samples{}}
			kinds[key] = a
			order = append(order, key)
		}
		a.rounds++
		a.spans += st.leaves + 1
		for layer, v := range st.selfMs {
			a.self[layer] = append(a.self[layer], v)
		}
	}
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "round kind\tlayer\trounds\tspans/round\tself ms p50\tself ms total")
	for _, key := range order {
		a := kinds[key]
		layers := make([]string, 0, len(a.self))
		for l := range a.self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			s := a.self[l]
			for len(s) < a.rounds {
				s = append(s, 0)
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.4f\t%.2f\n", key, l, a.rounds,
				float64(a.spans)/float64(a.rounds), s.quantile(0.5), s.sum())
		}
	}
	_ = tw.Flush()
	return b.String()
}

// writeTraceFiles writes <base>.trace.json and <base>.self.txt under dir
// and returns the trace path; the table also goes to standard error.
func writeTraceFiles(dir, base string, rec *recorder, stats []roundStats) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	table := selfTable(stats)
	fmt.Fprint(os.Stderr, table)
	tracePath := filepath.Join(dir, base+".trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return "", err
	}
	if err := rec.writeTrace(f); err != nil {
		_ = f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".self.txt"), []byte(table), 0o644); err != nil {
		return "", err
	}
	return tracePath, nil
}
