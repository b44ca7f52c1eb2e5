package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Span kinds of a traced run. The first six are the program's own
// (httpcdn and clusterd serving spans); the rest are recorded by the
// benchmark around its calls into each layer.
var spanKinds = []string{
	obs.SpanServe, obs.SpanHealth, obs.SpanFailover, obs.SpanUpstream, obs.SpanRetry, obs.SpanOrigin,
	"client", "placement", "reconcile", "sim",
}

// spanLayers groups span kinds into the layers the self-time table
// reports.
var spanLayers = []struct {
	name  string
	kinds []string
}{
	{"serve", []string{obs.SpanServe, obs.SpanHealth, obs.SpanFailover}},
	{"upstream", []string{obs.SpanUpstream, obs.SpanRetry}},
	{"origin", []string{obs.SpanOrigin}},
	{"reconcile", []string{"reconcile"}},
	{"placement", []string{"placement"}},
	{"sim", []string{"sim"}},
	{"client", []string{"client"}},
}

// spanLog keeps a traced run's spans in memory until the run ends: the
// program's tracers write JSONL into buf, and the benchmark's own spans
// are appended to own.
type spanLog struct {
	buf    bytes.Buffer
	tracer *obs.Tracer

	mu  sync.Mutex
	own []obs.Span
	all []obs.Span // parsed on finish
}

func newSpanLog() *spanLog {
	l := &spanLog{}
	l.tracer = obs.NewTracer(&l.buf)
	return l
}

// open starts a benchmark span; close records it. parent may be nil for
// a root span.
func (l *spanLog) open(kind string, parent *obs.Span) *obs.Span {
	sp := &obs.Span{
		Trace:   obs.NewTraceID(),
		Span:    obs.NewSpanID(),
		Kind:    kind,
		StartUs: time.Now().UnixMicro(),
	}
	if parent != nil {
		sp.Trace, sp.Parent = parent.Trace, parent.Span
	}
	return sp
}

// close ends sp now and records it.
func (l *spanLog) close(sp *obs.Span) {
	sp.DurUs = time.Now().UnixMicro() - sp.StartUs
	l.add(*sp)
}

// add records a finished span.
func (l *spanLog) add(sp obs.Span) {
	l.mu.Lock()
	l.own = append(l.own, sp)
	l.mu.Unlock()
}

// finish parses the program's spans and merges them with the
// benchmark's. Call it once every traced component has stopped.
func (l *spanLog) finish() error {
	if err := l.tracer.Flush(); err != nil {
		return fmt.Errorf("span tracer: %w", err)
	}
	prog, err := obs.ReadSpans(bytes.NewReader(l.buf.Bytes()))
	if err != nil {
		return fmt.Errorf("parse program spans: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.all = append(prog, l.own...)
	return nil
}

func (l *spanLog) len() int { return len(l.all) }

// selfTimes returns each span kind's total self time in milliseconds: a
// span's duration minus the part of it its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	type iv struct{ lo, hi int64 }
	children := make(map[string][]iv, len(l.all))
	for _, s := range l.all {
		if s.Parent != "" {
			children[s.Trace+"/"+s.Parent] = append(children[s.Trace+"/"+s.Parent], iv{s.StartUs, s.EndUs()})
		}
	}
	self := make(map[string]float64)
	for _, s := range l.all {
		lo, hi := s.StartUs, s.EndUs()
		kids := children[s.Trace+"/"+s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, cur := int64(0), lo
		for _, k := range kids {
			a, b := max(k.lo, cur), min(k.hi, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		self[s.Kind] += float64(s.DurUs-covered) / 1000
	}
	return self
}

// setSelfTimes records the self-time table as per-layer metrics.
func (r *result) setSelfTimes() {
	self := r.spans.selfTimes()
	for _, k := range spanKinds {
		r.set("self_ms."+k, self[k])
	}
	for _, layer := range spanLayers {
		var t float64
		for _, k := range layer.kinds {
			t += self[k]
		}
		r.set("self_ms.layer."+layer.name, t)
	}
}

// writeFile writes every span as JSONL to dir and returns the path.
func (l *spanLog) writeFile(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
