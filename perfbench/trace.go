package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary: the benchmark opens it
// right before calling into a layer's public function and closes it right
// after. Spans of one op share its op id; parent is the id of the
// enclosing span, -1 for an op's root.
type span struct {
	name   int32
	parent int32
	op     int32
	start  int64 // ns since the tracer's origin
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory; write dumps them when the run ends.
// It is used from one goroutine at a time.
type tracer struct {
	origin time.Time
	names  []string
	ids    map[string]int32
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), ids: make(map[string]int32)}
}

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

func (t *tracer) nameID(name string) int32 {
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int32) int32 {
	t.spans = append(t.spans, span{name: t.nameID(name), parent: parent, op: op, start: t.now()})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) { t.spans[id].end = t.now() }

// add records an already-measured interval (a layer that reports its own
// duration, such as the simulator's solve observer).
func (t *tracer) add(name string, parent, op int32, start, end int64) {
	t.spans = append(t.spans, span{name: t.nameID(name), parent: parent, op: op, start: start, end: end})
}

// durations returns the durations (ms) of the spans with the given name,
// from span index from on (one workload's section of a traced run).
func (t *tracer) durations(from int, name string) samples {
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out samples
	for _, s := range t.spans[from:] {
		if s.name == id {
			out.add(float64(s.dur()) / 1e6)
		}
	}
	return out
}

// children indexes the direct children of every span.
func (t *tracer) children() map[int32][]int32 {
	ch := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.parent >= 0 {
			ch[s.parent] = append(ch[s.parent], int32(i))
		}
	}
	return ch
}

// self is span i's self time, given the children index.
func (t *tracer) self(i int32, ch map[int32][]int32) int64 {
	kids := make([]span, 0, len(ch[i]))
	for _, k := range ch[i] {
		kids = append(kids, t.spans[k])
	}
	return selfTime(t.spans[i], kids)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (concurrent layers), so
// their intervals are merged first; parts sticking out of the parent are
// clipped.
func selfTime(parent span, kids []span) int64 {
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.start, k.end
		if lo < parent.start {
			lo = parent.start
		}
		if hi > parent.end {
			hi = parent.end
		}
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// coverage is the share of the named root spans' time that their child
// (layer) spans cover, Σ (root − self) / Σ root, over the spans from index
// from on.
func (t *tracer) coverage(from int, root string) float64 {
	id, ok := t.ids[root]
	if !ok {
		return 0
	}
	ch := t.children()
	var total, self int64
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].name != id {
			continue
		}
		total += t.spans[i].dur()
		self += t.self(int32(i), ch)
	}
	if total == 0 {
		return 0
	}
	return float64(total-self) / float64(total)
}

// write dumps every span as one JSON object per line, gzip-compressed,
// with its self time: {"id","name","op","parent","start_ns","end_ns","self_ns"}.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing spans: %w", cerr)
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	ch := t.children()
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"op":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			i, t.names[s.name], s.op, s.parent, s.start, s.end, t.self(int32(i), ch))
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
