package main

import (
	"context"

	"repro/internal/clusterd"
	"repro/internal/httpcdn"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

const (
	// edgeLocalNominalRPS is edge-local's closed-loop goodput on the
	// reference machine (see README.md).
	edgeLocalNominalRPS = 18000
	// edgeLocalMaxObject caps payloads at 4 KiB so bodies stay small.
	edgeLocalMaxObject = 4 << 10
)

// runEdgeLocal serves cdnd's scenario shape (6 edges, 8 sites) from the
// single-process HTTP assembly with storage for about 60% of the content
// and no control loop, so almost every request stays on the edge that
// received it.
func runEdgeLocal(ctx context.Context, cfg runConfig) (*result, error) {
	var served edgeTotals
	return runServing(ctx, cfg, servingWorkload{
		scenario: func() (*scenario.Scenario, error) {
			return clusterd.Params{Edges: 6, Seed: 1, CapacityFrac: 0.6}.Build()
		},
		requests: edgeLocalRequests,
		start: func(_ context.Context, sc *scenario.Scenario, spans *spanLog) (deployment, error) {
			return startEdgeLocal(sc, spans, &served)
		},
		finish:     served.finish,
		nominalRPS: edgeLocalNominalRPS,
		cycle:      1,
		layer:      "httpcdn",
		other:      "clusterd",
	})
}

// edgeLocalRequests draws n requests of the static catalog's stream;
// each goes to the edge the workload assigns its client to.
func edgeLocalRequests(sc *scenario.Scenario, seed uint64, n int) []request {
	st := sc.Stream(xrand.New(seed))
	reqs := make([]request, n)
	for k := range reqs {
		r := st.Next()
		reqs[k] = request{edge: r.Server, site: r.Site, object: r.Object}
	}
	return reqs
}

// edgeTotals sums the edges' own serve counters over every round.
type edgeTotals struct {
	local, served int64
}

func (e *edgeTotals) finish(res *result, traced bool) {
	if !traced {
		return
	}
	frac := 0.0
	if e.served > 0 {
		frac = float64(e.local) / float64(e.served)
	}
	res.set("httpcdn.local_frac", frac)
}

type edgeLocal struct {
	sc     *scenario.Scenario
	cl     *httpcdn.Cluster
	totals *edgeTotals
}

func startEdgeLocal(sc *scenario.Scenario, spans *spanLog, totals *edgeTotals) (deployment, error) {
	res, err := placement.Hybrid(sc.Sys, hybridConfig(sc))
	if err != nil {
		return nil, err
	}
	hcfg := httpcdn.DefaultConfig()
	hcfg.MaxObjectBytes = edgeLocalMaxObject
	if spans != nil {
		hcfg.Tracer = spans.tracer
		hcfg.TraceSpans = true
	}
	cl, err := httpcdn.Start(sc, res.Placement, hcfg)
	if err != nil {
		return nil, err
	}
	return &edgeLocal{sc: sc, cl: cl, totals: totals}, nil
}

func (d *edgeLocal) edgeURL(i int) string { return d.cl.EdgeURL(i) }

func (d *edgeLocal) target(reqs []request) *target {
	return &target{
		reqs:    reqs,
		size:    objectSizer(d.sc, edgeLocalMaxObject),
		version: func(int, int) int { return 0 },
	}
}

func (d *edgeLocal) close() {
	for i := 0; i < d.sc.Sys.N(); i++ {
		s := d.cl.EdgeStats(i)
		d.totals.local += s.Replica + s.CacheHit
		d.totals.served += s.Replica + s.CacheHit + s.PeerFetch + s.OriginFetch
	}
	d.cl.Close()
}

// objectSizer returns the body length an edge serves for an object:
// its catalog size capped at maxBytes, and at least one byte.
func objectSizer(sc *scenario.Scenario, maxBytes int64) func(site, object int) int64 {
	return func(site, object int) int64 {
		return min(max(sc.Work.Size(site, object), 1), maxBytes)
	}
}
