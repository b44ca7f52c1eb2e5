package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clusterd"
	"repro/internal/control"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

const (
	// clusterChurnNominalRPS is cluster-churn's closed-loop goodput on
	// the reference machine (see README.md).
	clusterChurnNominalRPS = 6200
	// clusterChurnStaleFrac is the share of requests for sites outside
	// the catalog (stale links); each must come back 404.
	clusterChurnStaleFrac = 0.02
	// clusterChurnRotateEvery is the request count after which site
	// popularity rotates by half the catalog, and back again: one
	// rotation cycle is twice this, and the throughput phase is a whole
	// number of cycles so every run does the same kind of work.
	clusterChurnRotateEvery = 2000
	// clusterChurnModifyEvery and clusterChurnReconcileEvery are the
	// request counts at which the origin bumps an object's version and
	// the control plane runs a reconcile round.
	clusterChurnModifyEvery    = 250
	clusterChurnReconcileEvery = 1000
)

// clusterChurnParams gives each edge storage for 8% of the content: the
// least at which the smallest sites fit, so reconciles can move
// replicas (at 5% no site fits and every round is a no-op).
var clusterChurnParams = clusterd.Params{Edges: 2, Seed: 1, CapacityFrac: 0.08}

// runClusterChurn runs the multi-process stack — control plane, origin
// and two edges — in this process on loopback, with scarce storage and
// full-size objects, under a churning request mix.
func runClusterChurn(ctx context.Context, cfg runConfig) (*result, error) {
	totals := &churnTotals{}
	return runServing(ctx, cfg, servingWorkload{
		scenario: clusterChurnParams.Build,
		requests: clusterChurnRequests,
		start: func(ctx context.Context, sc *scenario.Scenario, spans *spanLog) (deployment, error) {
			return startClusterChurn(ctx, sc, spans, totals)
		},
		finish:     totals.finish,
		nominalRPS: clusterChurnNominalRPS,
		cycle:      2 * clusterChurnRotateEvery,
		layer:      "clusterd",
		other:      "httpcdn",
	})
}

// clusterChurnRequests draws n requests with site popularity rotated by
// half the catalog in every other block of clusterChurnRotateEvery
// requests, and a clusterChurnStaleFrac share of stale links.
func clusterChurnRequests(sc *scenario.Scenario, seed uint64, n int) []request {
	rng := xrand.New(seed)
	st := sc.Stream(rng.Split("stream"))
	stale := rng.Split("stale")
	m := sc.Sys.M()
	reqs := make([]request, n)
	for k := range reqs {
		r := st.Next()
		if stale.Float64() < clusterChurnStaleFrac {
			reqs[k] = request{edge: r.Server, site: m + stale.Intn(m), object: 1, stale: true}
			continue
		}
		site := r.Site
		if (k/clusterChurnRotateEvery)%2 == 1 {
			site = (site + m/2) % m
		}
		object := min(r.Object, len(sc.Work.Sites[site].Objects))
		reqs[k] = request{edge: r.Server, site: site, object: object}
	}
	return reqs
}

// churnTotals collects the control-plane rounds of every deployment of
// a run.
type churnTotals struct {
	mu       sync.Mutex
	attempts int64
	errs     []string
	reports  []*control.Report
	roundMs  []float64
	pushLag  []float64
}

// finish counts the rounds as operations and, in traced runs, sets the
// control-plane metrics of the in-run rounds.
func (c *churnTotals) finish(res *result, traced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res.merge(c.attempts, int64(len(c.errs)), c.errs)
	if !traced {
		return
	}
	var placeMs []float64
	var applied, skipped float64
	for _, rep := range c.reports {
		placeMs = append(placeMs, rep.PlacementMs)
		switch rep.Outcome {
		case control.OutcomeApplied:
			applied++
		case control.OutcomeSkipped:
			skipped++
		}
	}
	res.set("control.round_ms", median(c.roundMs))
	res.set("control.placement_ms", median(placeMs))
	res.set("control.rounds_applied", applied)
	res.set("control.rounds_skipped", skipped)
	res.set("clusterd.push_lag_ms", median(c.pushLag))
}

type clusterChurn struct {
	sc     *scenario.Scenario
	cp     *clusterd.ControlPlane
	origin *clusterd.Origin
	edges  []*clusterd.Edge
	totals *churnTotals

	verMu    sync.Mutex
	versions map[[2]int]int

	rounds  sync.WaitGroup
	inRound atomic.Bool
}

func startClusterChurn(ctx context.Context, sc *scenario.Scenario, spans *spanLog, totals *churnTotals) (deployment, error) {
	d := &clusterChurn{sc: sc, totals: totals, versions: make(map[[2]int]int)}
	cp, err := clusterd.StartControl(clusterChurnParams, clusterd.ControlConfig{
		Addr:        "127.0.0.1:0",
		Interval:    time.Hour, // rounds run at fixed request counts instead
		ReportEvery: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	d.cp = cp
	fail := func(err error) (deployment, error) {
		d.close()
		return nil, err
	}
	o, err := clusterd.StartOrigin(clusterChurnParams, clusterd.OriginConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return fail(err)
	}
	d.origin = o
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := o.Register(rctx, nil, cp.URL()); err != nil {
		return fail(err)
	}
	for i := 0; i < clusterChurnParams.Edges; i++ {
		ecfg := clusterd.EdgeConfig{ID: i, Addr: "127.0.0.1:0"}
		if spans != nil {
			ecfg.Tracer = spans.tracer
		}
		e, err := clusterd.StartEdge(clusterChurnParams, ecfg)
		if err != nil {
			return fail(err)
		}
		d.edges = append(d.edges, e)
		if err := e.Register(rctx, cp.URL()); err != nil {
			return fail(err)
		}
	}
	return d, nil
}

func (d *clusterChurn) edgeURL(i int) string { return d.edges[i].URL() }

func (d *clusterChurn) target(reqs []request) *target {
	return &target{
		reqs: reqs,
		size: objectSizer(d.sc, 64<<10),
		version: func(site, object int) int {
			d.verMu.Lock()
			defer d.verMu.Unlock()
			return d.versions[[2]int{site, object}]
		},
		hook: func(k int) {
			if k > 0 && k%clusterChurnModifyEvery == 0 {
				if r := reqs[k]; !r.stale {
					d.bump(r.site, r.object)
				}
			}
			if k > 0 && k%clusterChurnReconcileEvery == 0 && d.inRound.CompareAndSwap(false, true) {
				d.rounds.Add(1)
				go d.reconcile()
			}
		},
	}
}

// bump publishes a new version of an object: the benchmark records it
// before the origin serves it, so no answer can carry a version the
// benchmark has not seen.
func (d *clusterChurn) bump(site, object int) {
	d.verMu.Lock()
	d.versions[[2]int{site, object}]++
	d.verMu.Unlock()
	d.origin.ModifyObject(site, object)
}

// reconcile runs one control-plane round and, when it applied a new
// placement, times how long the edges take to report its version.
func (d *clusterChurn) reconcile() {
	defer d.rounds.Done()
	defer d.inRound.Store(false)
	start := time.Now()
	rep, err := d.cp.Controller().Reconcile()
	done := time.Now()
	var lag float64
	if err == nil && rep.Outcome == control.OutcomeApplied {
		lag, err = d.waitPushed()
	}
	t := d.totals
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts++
	if err != nil {
		t.errs = append(t.errs, fmt.Sprintf("reconcile: %v", err))
		return
	}
	t.reports = append(t.reports, rep)
	t.roundMs = append(t.roundMs, float64(done.Sub(start).Nanoseconds())/1e6)
	if rep.Outcome == control.OutcomeApplied {
		t.pushLag = append(t.pushLag, lag)
	}
}

// waitPushed waits until every edge reports the control plane's
// placement version and returns how long that took, in milliseconds.
func (d *clusterChurn) waitPushed() (float64, error) {
	start := time.Now()
	_, version := d.cp.Placement()
	for deadline := start.Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		caught := true
		for _, e := range d.edges {
			caught = caught && e.PlacementVersion() >= version
		}
		if caught {
			return float64(time.Since(start).Nanoseconds()) / 1e6, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("edges did not reach placement v%d within 5s", version)
		}
	}
}

func (d *clusterChurn) close() {
	d.rounds.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, e := range d.edges {
		_ = e.Shutdown(ctx) // best effort: the run is over
	}
	if d.origin != nil {
		_ = d.origin.Shutdown(ctx)
	}
	_ = d.cp.Shutdown(ctx)
}
