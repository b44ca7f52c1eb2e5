package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/scenario"
)

// deployment is one started serving stack.
type deployment interface {
	// edgeURL is the base URL of edge i.
	edgeURL(i int) string
	// target wraps reqs (URLs filled in) with the deployment's checks
	// and hooks.
	target(reqs []request) *target
	// close waits for the deployment's background work, folds what it
	// measured into its workload's totals and stops every server.
	close()
}

// servingWorkload describes one HTTP workload.
type servingWorkload struct {
	// scenario builds the workload's fixed deployment scenario.
	scenario func() (*scenario.Scenario, error)
	// requests generates n requests from the seed (URLs are filled in
	// per deployment).
	requests func(sc *scenario.Scenario, seed uint64, n int) []request
	// start launches the stack on sc; the program's spans go to spans
	// when it is non-nil.
	start func(ctx context.Context, sc *scenario.Scenario, spans *spanLog) (deployment, error)
	// finish records the workload's own totals once every deployment
	// has closed: operations into res and, in traced runs, its per-layer
	// metrics.
	finish func(res *result, traced bool)
	// nominalRPS is the workload's closed-loop goodput on the reference
	// machine (see README.md). It sizes the throughput phase, and
	// latencyLoad of it is the latency phase's fixed offered rate.
	nominalRPS float64
	// cycle is the period, in requests, of the workload's request mix;
	// the throughput phase is a whole number of cycles long.
	cycle int64
	// layer names the per-layer metric prefix of the serving stack
	// ("httpcdn" or "clusterd"); the other stack's metrics are 0.
	layer, other string
}

const (
	// warmRequests is the size of the untimed warm pass that ends
	// set-up.
	warmRequests = 3000
	// latencyLoad is the latency phase's offered rate as a share of the
	// workload's nominal goodput: low enough that a shared machine
	// running 30-40% slower than usual still does not queue requests
	// behind the nproc connections, which is what made the tail jump
	// between runs at 45%.
	latencyLoad = 0.3
)

// runServing runs one HTTP workload as rounds. Each round builds the
// scenario, starts the stack and warms it (set-up), runs a closed-loop
// throughput phase and an open-loop latency phase over the same request
// sequence, shuts the stack down, and times a few passes of the offline
// layers on the round's scenario. Round 0 is an untimed warm round; the
// rounds after it spread every metric's samples over the whole run, so a
// slow moment of the machine moves one round, not the result.
func runServing(ctx context.Context, cfg runConfig, w servingWorkload) (*result, error) {
	res := newResult()
	sc, err := w.scenario()
	if err != nil {
		return nil, fmt.Errorf("build scenario: %w", err)
	}
	perRound := cfg.seconds / float64(cfg.size.rounds)
	count := max(1, int64(w.nominalRPS*perRound/2/float64(w.cycle)+0.5)) * w.cycle
	rate := w.nominalRPS * latencyLoad
	n := max(1, int64(rate*perRound/2))
	reqs := w.requests(sc, cfg.seed, int(warmRequests+count+n))

	var capacity, latency phaseStats
	var setupSecs, buildSecs, roundRPS, roundP50, roundP90, roundP99 []float64
	var goDelta goCounters
	place := &placeRuns{}
	rec := &reconcileRuns{counts: demandCounts(sc, cfg.seed, planPaperDriftDraws/5, sc.Sys.M()/2)}
	sims := &simRuns{requests: cfg.size.simRequests / 2}
	offline := cfg.size.minPassSeconds / float64(cfg.size.rounds)
	for r := 0; r <= cfg.size.rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		sc, err = w.scenario()
		if err != nil {
			return nil, fmt.Errorf("build scenario: %w", err)
		}
		built := time.Since(start)
		dep, err := w.start(ctx, sc, nil)
		if err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
		wt := dep.target(withURLs(reqs[:warmRequests], dep))
		warmed := closedLoop(ctx, wt, cfg.procs, 0, warmRequests)
		setup := time.Since(start)
		wt.closeIdle()

		t := dep.target(withURLs(reqs, dep))
		runtime.GC()
		g0 := readGoCounters()
		c := closedLoop(ctx, t, cfg.procs, warmRequests, count)
		runtime.GC()
		l := openLoop(ctx, t, cfg.procs, warmRequests+count, n, rate)
		g1 := readGoCounters()
		t.closeIdle()
		dep.close()
		for _, ph := range []*phaseStats{warmed, c, l} {
			res.merge(ph.attempted, ph.failed, ph.failures)
		}

		// The offline layers on the round's scenario, a few samples per
		// round so their samples too span the run.
		place.sc = sc
		placeSecs, err := passes(ctx, offline, func() (time.Duration, error) { return place.run(cfg, res) })
		if err != nil {
			return nil, err
		}
		rec.sc, rec.base = sc, place.last.Placement
		recSecs, err := passes(ctx, offline, func() (time.Duration, error) { return rec.run(cfg, res) })
		if err != nil {
			return nil, err
		}
		sims.sc, sims.p = sc, place.last.Placement
		simSecs, err := passes(ctx, offline, func() (time.Duration, error) { return sims.run(ctx, cfg, res) })
		if err != nil {
			return nil, err
		}
		if r == 0 {
			continue
		}
		place.secs = append(place.secs, placeSecs...)
		rec.secs = append(rec.secs, recSecs...)
		sims.secs = append(sims.secs, simSecs...)
		setupSecs = append(setupSecs, setup.Seconds())
		buildSecs = append(buildSecs, built.Seconds())
		roundRPS = append(roundRPS, c.goodput())
		roundP50 = append(roundP50, l.lat.quantileMs(0.50))
		roundP90 = append(roundP90, l.lat.quantileMs(0.90))
		roundP99 = append(roundP99, l.lat.quantileMs(0.99))
		capacity.add(c)
		latency.add(l)
		goDelta.add(g0, g1)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.set("setup_s", median(setupSecs))
	res.set("serve_rps", median(roundRPS))
	res.set("serve_p50_ms", median(roundP50))
	res.set("serve_p90_ms", median(roundP90))
	res.note("%d rounds: set-up s %.3f; throughput: %d requests per round, req/s %.0f; latency: %d requests per round offered at %.0f/s, p50 ms %.3f, p90 ms %.3f, p99 ms %.3f",
		cfg.size.rounds, setupSecs, count, roundRPS, n, rate, roundP50, roundP90, roundP99)

	if cfg.traced {
		res.set("scenario.build_s", median(buildSecs))
		res.setGoMetrics(goDelta, capacity.attempted+latency.attempted)
		res.set("bench.gen_late_p99_ms", latency.late.quantileMs(0.99))
		res.set("bench.serve_p99_ms", median(roundP99))
		res.set("bench.serve_samples", float64(latency.lat.n/int64(cfg.size.rounds)))
		res.set("bench.latency_phase_offered", rate)
		res.set(w.layer+".not_found", float64(capacity.notFound+latency.notFound))
		for i, src := range sources {
			res.set(w.layer+".by_source."+src, float64(latency.bySource[i]))
			res.set(w.layer+".p50_ms."+src, latency.srcLat[i].quantileMs(0.50))
		}
		if err := servingTraceOverhead(ctx, cfg, w, reqs, median(roundRPS), res); err != nil {
			return nil, err
		}
	}
	w.finish(res, cfg.traced)
	place.report(cfg, res)
	rec.report(cfg, res)
	sims.report(cfg, res)
	if cfg.traced {
		if err := measureLayerProbes(sc, place.last.Placement, cfg, res); err != nil {
			return nil, err
		}
		if err := res.spans.finish(); err != nil {
			return nil, err
		}
		res.setSelfTimes()
		zeroLayers(res, w.other+".")
	}
	res.set("max_rss_mb", maxRSSMB())
	return res, nil
}

// servingTraceOverhead runs one more round with the program's span
// tracing on and a client span per request: set-up, then
// cfg.size.tracedRequests requests back to back, every span kept in
// res.spans. It sets bench.trace_overhead_frac from that round's goodput
// and the untraced rounds'.
func servingTraceOverhead(ctx context.Context, cfg runConfig, w servingWorkload, reqs []request, untraced float64, res *result) error {
	sc, err := w.scenario()
	if err != nil {
		return err
	}
	dep, err := w.start(ctx, sc, res.spans)
	if err != nil {
		return fmt.Errorf("start traced stack: %w", err)
	}
	defer dep.close()
	t := dep.target(withURLs(reqs, dep))
	defer t.closeIdle()
	warmed := closedLoop(ctx, t, cfg.procs, 0, warmRequests)
	t.spans = res.spans
	runtime.GC()
	st := closedLoop(ctx, t, cfg.procs, warmRequests, int64(min(cfg.size.tracedRequests, len(reqs)-warmRequests)))
	for _, ph := range []*phaseStats{warmed, st} {
		res.merge(ph.attempted, ph.failed, ph.failures)
	}
	res.set("bench.trace_overhead_frac", 1-st.goodput()/untraced)
	return ctx.Err()
}

// withURLs returns a copy of reqs addressed to dep's edges. URLs are
// interned: requests for one (edge, site, object) share a string.
func withURLs(reqs []request, dep deployment) []request {
	out := make([]request, len(reqs))
	urls := make(map[[3]int]string)
	for k, r := range reqs {
		key := [3]int{r.edge, r.site, r.object}
		u, ok := urls[key]
		if !ok {
			u = fmt.Sprintf("%s/obj/%d/%d", dep.edgeURL(r.edge), r.site, r.object)
			urls[key] = u
		}
		r.url = u
		out[k] = r
	}
	return out
}

// zeroLayers records 0 for every not yet measured metric under the given
// prefixes: layers the workload does not run do no work.
func zeroLayers(res *result, prefixes ...string) {
	for name := range units {
		if _, ok := res.metrics[name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				res.metrics[name] = 0
			}
		}
	}
}
