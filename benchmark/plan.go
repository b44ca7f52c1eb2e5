package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/placement"
	"repro/internal/scenario"
)

// planPaperDriftDraws is how many seeded requests feed the estimator of
// plan-paper's controller round.
const planPaperDriftDraws = 500_000

// runPlanPaper is the offline workload at the paper's §5.1 scale ×1 (50
// servers, 20 sites, 5% storage). It runs rounds; each round builds the
// instance and its cold hybrid placement (set-up, the placement timed on
// its own too), then times one controller round on demand whose site
// popularity has rotated by half the catalog, one simulator pass of the
// placement, and the service time of every request in a second
// simulator pass. Round 0 is an untimed warm round; timed rounds run
// until there are cfg.size.rounds of them and they have taken
// cfg.seconds, spreading each step's samples over the whole run. No HTTP
// server runs.
func runPlanPaper(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	sc, err := scenario.Build(scenario.Default())
	if err != nil {
		return nil, fmt.Errorf("build scenario: %w", err)
	}
	counts := demandCounts(sc, cfg.seed, planPaperDriftDraws, sc.Sys.M()/2)

	var setupSecs, buildSecs []float64
	place := &placeRuns{}
	rec := &reconcileRuns{counts: counts}
	sims := &simRuns{requests: cfg.size.simRequests}
	var service latencyHist
	var serviceN int64
	var goDelta goCounters
	var measured time.Duration
	for r := 0; r <= cfg.size.rounds || measured.Seconds() < cfg.seconds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		timed := r > 0
		runtime.GC()
		start := time.Now()
		sc, err = scenario.Build(scenario.Default())
		if err != nil {
			return nil, fmt.Errorf("build scenario: %w", err)
		}
		built := time.Since(start)
		place.sc = sc
		placed, err := place.run(cfg, res)
		if err != nil {
			return nil, err
		}
		setup := time.Since(start)
		base := place.last.Placement
		res.attempted++
		if err := checkPlacement(base, sc.Sys); err != nil {
			res.fail("initial placement: %v", err)
		}

		rec.sc, rec.base = sc, base
		sims.sc, sims.p = sc, base
		runtime.GC()
		reconciled, err := rec.run(cfg, res)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		simulated, err := sims.run(ctx, cfg, res)
		if err != nil {
			return nil, err
		}
		g0 := readGoCounters()
		src, err := measureSimService(ctx, sc, base, cfg.size.simRequests*2/5, cfg)
		if err != nil {
			return nil, err
		}
		g1 := readGoCounters()
		res.attempted++
		if !timed {
			continue
		}
		measured += time.Since(start)
		setupSecs = append(setupSecs, setup.Seconds())
		buildSecs = append(buildSecs, built.Seconds())
		place.secs = append(place.secs, placed.Seconds())
		rec.secs = append(rec.secs, reconciled.Seconds())
		sims.secs = append(sims.secs, simulated.Seconds())
		service.add(&src.lat)
		serviceN += src.n
		goDelta.add(g0, g1)
	}
	res.set("setup_s", median(setupSecs))
	place.report(cfg, res)
	rec.report(cfg, res)
	sims.report(cfg, res)
	res.set("serve_rps", res.metrics["sim_rps"])
	res.set("serve_p50_ms", service.quantileMs(0.50))
	res.set("serve_p90_ms", service.quantileMs(0.90))
	res.note("%d rounds: set-up s %.3f, of which placement s %.3f; reconcile s %.3f; simulator pass s %.3f; service time of %d simulated requests",
		len(setupSecs), setupSecs, place.secs, rec.secs, sims.secs, serviceN)

	if cfg.traced {
		res.set("scenario.build_s", median(buildSecs))
		res.setGoMetrics(goDelta, serviceN)
		res.set("bench.gen_late_p99_ms", 0)
		res.set("bench.serve_p99_ms", service.quantileMs(0.99))
		res.set("bench.serve_samples", float64(service.n))
		res.set("bench.latency_phase_offered", 0)
		if err := measureLayerProbes(sc, place.last.Placement, cfg, res); err != nil {
			return nil, err
		}
		if err := planTraceOverhead(sc, res); err != nil {
			return nil, err
		}
		if err := res.spans.finish(); err != nil {
			return nil, err
		}
		res.setSelfTimes()
		zeroLayers(res, "httpcdn.", "clusterd.")
	}
	res.set("max_rss_mb", maxRSSMB())
	return res, nil
}

// planTraceOverhead times one cold solve with and without the Explain
// hook and sets bench.trace_overhead_frac from the two.
func planTraceOverhead(sc *scenario.Scenario, res *result) error {
	plain, err := stopwatch(func() error {
		_, err := placement.Hybrid(sc.Sys, hybridConfig(sc))
		return err
	})
	if err != nil {
		return err
	}
	traced, err := stopwatch(func() error {
		hc := hybridConfig(sc)
		n := 0
		hc.Explain = func(placement.ExplainStep) { n++ }
		_, err := placement.Hybrid(sc.Sys, hc)
		return err
	})
	if err != nil {
		return err
	}
	res.set("bench.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1)
	return nil
}
