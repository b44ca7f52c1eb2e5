package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The serving workloads drive HTTP load from this process with a client
// the benchmark owns: procs workers, one request in flight each, over
// keep-alive connections. It checks every response itself, so neither
// the load nor the checks run program code whose cost would move with
// the program.

// sources are the X-Cdn-Source values a served request may carry.
var sources = []string{"replica", "cache", "peer", "origin"}

func sourceIndex(s string) int {
	for i, v := range sources {
		if v == s {
			return i
		}
	}
	return -1
}

// request is one generated client request.
type request struct {
	url                string
	edge, site, object int
	// stale marks a link outside the catalog; the only right answer is
	// 404.
	stale bool
}

// target is what a load phase runs against.
type target struct {
	reqs []request
	// size is the body length a request for (site, object) must carry.
	size func(site, object int) int64
	// version is the newest version of (site, object) the benchmark has
	// published; a body may be older (cached) but never newer.
	version func(site, object int) int
	// hook, when non-nil, runs on the worker that claims request k
	// before it is sent: the fixed-request-count trigger for version
	// bumps and reconciles.
	hook func(k int)
	// spans, when non-nil, gets a client span per request whose
	// Traceparent the request carries, so the program's serve spans
	// become its children.
	spans *spanLog
	// clients are the workers' HTTP clients, kept across phases so
	// their keep-alive connections are too.
	clients []*client
}

// client returns worker w's client, creating it on first use.
func (t *target) client(w int) *client {
	for len(t.clients) <= w {
		t.clients = append(t.clients, newClient())
	}
	return t.clients[w]
}

// closeIdle drops the workers' keep-alive connections.
func (t *target) closeIdle() {
	for _, c := range t.clients {
		c.hc.CloseIdleConnections()
	}
}

// phaseStats is one load phase's outcome.
type phaseStats struct {
	attempted, failed, notFound int64
	failures                    []string
	bySource                    [4]int64
	lat                         latencyHist // from due time (open loop) or send (closed loop)
	late                        latencyHist // send start minus due time (open loop)
	srcLat                      [4]latencyHist
	elapsed                     time.Duration
}

func (p *phaseStats) add(o *phaseStats) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.notFound += o.notFound
	for _, f := range o.failures {
		if len(p.failures) < 10 {
			p.failures = append(p.failures, f)
		}
	}
	for i := range p.bySource {
		p.bySource[i] += o.bySource[i]
		p.srcLat[i].add(&o.srcLat[i])
	}
	p.lat.add(&o.lat)
	p.late.add(&o.late)
}

func (p *phaseStats) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// client is one load worker's HTTP client and body buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

// do sends r and checks the answer, recording the outcome in st. It
// returns the source that served r, -1 when there is none.
func (c *client) do(ctx context.Context, t *target, r request, st *phaseStats) int {
	st.attempted++
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url, nil)
	if err != nil {
		st.fail("%s: %v", r.url, err)
		return -1
	}
	var sp *obs.Span
	if t.spans != nil {
		sp = t.spans.open("client", nil)
		sp.Site, sp.Object = r.site, r.object
		req.Header.Set(obs.TraceparentHeader, obs.Traceparent(sp.Trace, sp.Span))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		st.fail("%s: %v", r.url, err)
		return -1
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if sp != nil {
		t.spans.close(sp)
	}
	if err != nil {
		st.fail("%s: read body: %v", r.url, err)
		return -1
	}
	src, err := checkResponse(t, r, resp.StatusCode, resp.Header, c.buf.Bytes())
	if err != nil {
		st.fail("%s: %v", r.url, err)
		return -1
	}
	if r.stale {
		st.notFound++
		return -1
	}
	st.bySource[src]++
	return src
}

// checkResponse checks one answer against what the benchmark expects:
// 404 for a stale link; otherwise 200 from a known source, with an ETag
// naming the object and a version not newer than the newest published,
// and a body of the object's length carrying that version's byte
// pattern. It returns the source index.
func checkResponse(t *target, r request, status int, h http.Header, body []byte) (int, error) {
	if r.stale {
		if status != http.StatusNotFound {
			return -1, fmt.Errorf("stale link answered %d, want 404", status)
		}
		return -1, nil
	}
	if status != http.StatusOK {
		return -1, fmt.Errorf("status %d", status)
	}
	src := sourceIndex(h.Get("X-Cdn-Source"))
	if src < 0 {
		return -1, fmt.Errorf("unknown source %q", h.Get("X-Cdn-Source"))
	}
	version, ok := parseETag(h.Get("Etag"), r.site, r.object)
	if !ok {
		return -1, fmt.Errorf("etag %q does not name the object", h.Get("Etag"))
	}
	if newest := t.version(r.site, r.object); version > newest {
		return -1, fmt.Errorf("version %d is newer than the newest published %d", version, newest)
	}
	if want := t.size(r.site, r.object); int64(len(body)) != want {
		return -1, fmt.Errorf("body has %d bytes, want %d", len(body), want)
	}
	if !patternOK(body, r.site, r.object, version) {
		return -1, fmt.Errorf("body does not carry version %d's pattern", version)
	}
	return src, nil
}

// parseETag reads the version out of an ETag of the form
// "/obj/{site}/{object}@{version}" (quoted) for the given object.
func parseETag(etag string, site, object int) (int, bool) {
	prefix := "\"/obj/" + strconv.Itoa(site) + "/" + strconv.Itoa(object) + "@"
	if !strings.HasPrefix(etag, prefix) || !strings.HasSuffix(etag, "\"") {
		return 0, false
	}
	v, err := strconv.Atoi(etag[len(prefix) : len(etag)-1])
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// patternOK checks the deterministic body of an object version: byte i
// is seed + i mod 4096, with seed = site·31 + object·7 + version·13
// (mod 256).
func patternOK(body []byte, site, object, version int) bool {
	seed := byte(site*31 + object*7 + version*13)
	for i, b := range body {
		if b != seed+byte(i%4096) {
			return false
		}
	}
	return true
}

// closedLoop sends requests offset .. offset+n-1 back to back from
// procs workers and returns the merged stats; latencies are timed from
// each send. A fixed count, not a fixed duration, keeps the request
// sequence — and so the work — the same however fast the program runs.
func closedLoop(ctx context.Context, t *target, procs int, offset, n int64) *phaseStats {
	return runWorkers(ctx, t, procs, offset, func(k int64, _ time.Time) (time.Time, bool) {
		return time.Time{}, k < n
	})
}

// openLoop offers requests offset .. offset+n-1 at a fixed rate: request
// k is due at start + k/rate and its latency is timed from that due
// time, so a stall also charges the requests queued behind it.
func openLoop(ctx context.Context, t *target, procs int, offset, n int64, rate float64) *phaseStats {
	interval := float64(time.Second) / rate
	return runWorkers(ctx, t, procs, offset, func(k int64, start time.Time) (time.Time, bool) {
		return start.Add(time.Duration(float64(k) * interval)), k < n
	})
}

// runWorkers is the shared worker loop: workers claim phase-local
// request numbers k in order and send request offset+k; schedule says
// when k is due (zero time: send now) and whether to send it at all.
func runWorkers(ctx context.Context, t *target, procs int, offset int64, schedule func(k int64, start time.Time) (time.Time, bool)) *phaseStats {
	var next atomic.Int64
	stats := make([]phaseStats, procs)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(c *client, st *phaseStats) {
			defer wg.Done()
			for ctx.Err() == nil {
				k := next.Add(1) - 1
				due, ok := schedule(k, start)
				if !ok {
					return
				}
				idx := int(offset+k) % len(t.reqs)
				if t.hook != nil {
					t.hook(idx)
				}
				if due.IsZero() {
					due = time.Now()
				} else if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				src := c.do(ctx, t, t.reqs[idx], st)
				done := time.Now()
				if src < 0 {
					continue
				}
				st.lat.observe(done.Sub(due))
				st.late.observe(sent.Sub(due))
				st.srcLat[src].observe(done.Sub(due))
			}
		}(t.client(w), &stats[w])
	}
	wg.Wait()
	total := &phaseStats{elapsed: time.Since(start)}
	for w := range stats {
		total.add(&stats[w])
	}
	return total
}

// goodput is the phase's correctly delivered objects per second; the
// expected 404s of stale links are not counted.
func (p *phaseStats) goodput() float64 {
	return float64(p.attempted-p.failed-p.notFound) / p.elapsed.Seconds()
}
