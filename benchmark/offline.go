package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/lrumodel"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The offline layers — placement, the controller, the simulator — are
// measured the same way on every workload's scenario: one call per
// pass, an untimed warm pass first, the median of the timed ones
// reported. Each layer has a runs type that makes one pass and then
// reports what its passes measured.

// minSampleSeconds is the shortest timed sample: a pass quicker than
// this is repeated inside one sample and the sample divided by the
// repetitions, so timer and collection overheads stay negligible.
const minSampleSeconds = 0.02

// passes runs f (one pass, returning how long its measured call took)
// once as an untimed warm pass, then collects samples of it — at least
// one, and until minSeconds of measured time — and returns the seconds
// of one pass in each sample.
func passes(ctx context.Context, minSeconds float64, f func() (time.Duration, error)) ([]float64, error) {
	warm, err := f()
	if err != nil {
		return nil, err
	}
	reps := 1
	if s := warm.Seconds(); s < minSampleSeconds {
		reps = int(minSampleSeconds/max(s, 1e-7)) + 1
	}
	var secs []float64
	var total float64
	for len(secs) == 0 || total < minSeconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC()
		var sample time.Duration
		for r := 0; r < reps; r++ {
			d, err := f()
			if err != nil {
				return nil, err
			}
			sample += d
		}
		secs = append(secs, sample.Seconds()/float64(reps))
		total += sample.Seconds()
	}
	return secs, nil
}

// hybridConfig is the placement configuration every workload solves
// with: the scenario's specs under the default model.
func hybridConfig(sc *scenario.Scenario) placement.HybridConfig {
	return placement.HybridConfig{Specs: sc.Work.Specs(), AvgObjectBytes: sc.Work.AvgObjectBytes}
}

// checkPlacement verifies, with the benchmark's own arithmetic, that no
// server holds more replica bytes than its capacity.
func checkPlacement(p *core.Placement, sys *core.System) error {
	for i := 0; i < sys.N(); i++ {
		var used int64
		for j := 0; j < sys.M(); j++ {
			if p.Has(i, j) {
				used += sys.SiteBytes[j]
			}
		}
		if used > sys.Capacity[i] {
			return fmt.Errorf("server %d holds %d replica bytes over capacity %d", i, used, sys.Capacity[i])
		}
	}
	return nil
}

// placeRuns times cold hybrid solves of one scenario.
type placeRuns struct {
	sc    *scenario.Scenario
	secs  []float64
	last  *placement.Result
	steps []placement.ExplainStep // of the last solve, traced runs
}

// run makes one solve; traced runs record it as a span and keep its
// Explain trail.
func (p *placeRuns) run(cfg runConfig, res *result) (time.Duration, error) {
	hc := hybridConfig(p.sc)
	var sp *obs.Span
	if cfg.traced {
		p.steps = p.steps[:0]
		hc.Explain = func(e placement.ExplainStep) { p.steps = append(p.steps, e) }
		sp = res.spans.open("placement", nil)
	}
	start := time.Now()
	r, err := placement.Hybrid(p.sc.Sys, hc)
	took := time.Since(start)
	if sp != nil {
		res.spans.close(sp)
	}
	if err != nil {
		return 0, fmt.Errorf("cold placement: %w", err)
	}
	p.last = r
	return took, nil
}

// report checks the last placement and sets place_s and the placement.*
// counters.
func (p *placeRuns) report(cfg runConfig, res *result) {
	res.attempted++
	if err := checkPlacement(p.last.Placement, p.sc.Sys); err != nil {
		res.fail("cold placement: %v", err)
	}
	res.set("place_s", median(p.secs))
	if !cfg.traced {
		return
	}
	var pops, stale int
	for _, e := range p.steps {
		pops += e.HeapPops
		stale += e.StaleReevals
	}
	res.set("placement.steps", float64(len(p.steps)))
	res.set("placement.heap_pops", float64(pops))
	res.set("placement.stale_reevals", float64(stale))
	useful := 0.0
	if pops > 0 {
		useful = float64(len(p.steps)) / float64(pops)
	}
	res.set("placement.useful_pop_frac", useful)
	res.set("placement.predicted_cost", p.last.PredictedCost)
}

// demandCounts draws n requests from sc's workload and counts them per
// (server, site). shift rotates site popularity: a request the workload
// makes for site j is counted for site (j+shift) mod M — the drift a
// controller has to follow.
func demandCounts(sc *scenario.Scenario, seed uint64, n, shift int) [][]int64 {
	m := sc.Sys.M()
	counts := make([][]int64, sc.Sys.N())
	for i := range counts {
		counts[i] = make([]int64, m)
	}
	st := sc.Stream(xrand.New(seed))
	for k := 0; k < n; k++ {
		r := st.Next()
		counts[r.Server][(r.Site+shift)%m]++
	}
	return counts
}

// reconcileRuns times controller rounds on drifted demand against an
// in-memory target holding base. Each pass builds a fresh controller
// whose estimator has seen counts, so every round solves the same
// problem.
type reconcileRuns struct {
	sc      *scenario.Scenario
	base    *core.Placement
	counts  [][]int64
	secs    []float64
	reports []*control.Report
	records []control.ReconcileRecord
	last    *control.ModelTarget
}

// run makes one controller round; only the Reconcile call is timed.
func (r *reconcileRuns) run(cfg runConfig, res *result) (time.Duration, error) {
	est, err := control.NewEstimator(control.EstimatorConfig{Servers: r.sc.Sys.N(), Sites: r.sc.Sys.M()})
	if err != nil {
		return 0, err
	}
	for i, row := range r.counts {
		for j, n := range row {
			est.ObserveN(i, j, n)
		}
	}
	target := control.NewModelTarget(r.base)
	ctrl, err := control.New(control.Config{
		Base:           r.sc.Sys,
		Specs:          r.sc.Work.Specs(),
		AvgObjectBytes: r.sc.Work.AvgObjectBytes,
		Target:         target,
		Estimator:      est,
	})
	if err != nil {
		return 0, err
	}
	var sp *obs.Span
	if cfg.traced {
		sp = res.spans.open("reconcile", nil)
	}
	start := time.Now()
	rep, err := ctrl.Reconcile()
	took := time.Since(start)
	if sp != nil {
		res.spans.close(sp)
		if rep != nil {
			// The round's optimizer share, as a child span, so the
			// self-time table splits reconcile from placement.
			child := res.spans.open("placement", sp)
			child.StartUs = sp.StartUs
			child.DurUs = int64(rep.PlacementMs * 1000)
			res.spans.add(*child)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("reconcile: %w", err)
	}
	r.reports = append(r.reports, rep)
	r.records = append(r.records, ctrl.Audit()...)
	r.last = target
	return took, nil
}

// report checks the rounds and sets reconcile_s and the control.*
// round metrics.
func (r *reconcileRuns) report(cfg runConfig, res *result) {
	res.set("reconcile_s", median(r.secs))
	var roundMs, placeMs []float64
	var applied, skipped float64
	for _, rep := range r.reports {
		res.attempted++
		if rep.Outcome == control.OutcomeNoSignal {
			res.fail("reconcile round %d saw no demand", rep.Round)
		}
		placeMs = append(placeMs, rep.PlacementMs)
		switch rep.Outcome {
		case control.OutcomeApplied:
			applied++
		case control.OutcomeSkipped:
			skipped++
		}
	}
	for _, rec := range r.records {
		roundMs = append(roundMs, rec.DurationMs)
	}
	if err := checkPlacement(r.last.Placement(), r.sc.Sys); err != nil {
		res.fail("reconciled placement: %v", err)
	}
	if !cfg.traced {
		return
	}
	// A workload whose live control plane ran rounds has already set
	// these from them.
	res.setDefault("control.round_ms", median(roundMs))
	res.setDefault("control.placement_ms", median(placeMs))
	res.setDefault("control.rounds_applied", applied)
	res.setDefault("control.rounds_skipped", skipped)
	tableHit := 0.0
	if n := len(r.records); n > 0 && r.records[n-1].Warm != nil {
		st := r.records[n-1].Warm.Shared
		if st.Hits+st.Misses > 0 {
			tableHit = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
	}
	res.set("lrumodel.table_hit_frac", tableHit)
}

// simConfig is the paper's latency model over LRU caches, with the
// warm-up taking half of a pass's requests.
func simConfig(requests int) sim.Config {
	c := sim.DefaultConfig()
	c.KeepResponseTimes = false
	c.Warmup = requests / 2
	c.Requests = requests - c.Warmup
	return c
}

// checkSim verifies the simulator's accounting: every measured request
// was served by a local replica, a local cache hit, a remote server or
// the origin.
func checkSim(m *sim.Metrics) error {
	served := m.LocalReplica + m.CacheHits + m.RemoteServer + m.OriginFetch
	if served != int64(m.Requests) {
		return fmt.Errorf("sim accounting: %d local + %d cache + %d remote + %d origin != %d requests",
			m.LocalReplica, m.CacheHits, m.RemoteServer, m.OriginFetch, m.Requests)
	}
	return nil
}

// simRuns times simulator passes of one placement. Every pass replays
// the same seeded request stream, so every pass does the same work.
type simRuns struct {
	sc       *scenario.Scenario
	p        *core.Placement
	requests int
	secs     []float64
	first    *sim.Metrics
}

// run makes one pass and checks its accounting.
func (s *simRuns) run(ctx context.Context, cfg runConfig, res *result) (time.Duration, error) {
	var sp *obs.Span
	if cfg.traced {
		sp = res.spans.open("sim", nil)
	}
	start := time.Now()
	m, err := sim.Run(ctx, s.sc, s.p, simConfig(s.requests), xrand.New(cfg.seed))
	took := time.Since(start)
	if sp != nil {
		res.spans.close(sp)
	}
	if err != nil {
		return 0, fmt.Errorf("simulator: %w", err)
	}
	if s.first == nil {
		s.first = m
	}
	res.attempted++
	if err := checkSim(m); err != nil {
		res.fail("%v", err)
	}
	return took, nil
}

// report sets sim_rps (warm-up included), sim_mean_rt_ms and the sim.*
// metrics.
func (s *simRuns) report(cfg runConfig, res *result) {
	perPass := median(s.secs)
	res.set("sim_rps", float64(s.requests)/perPass)
	res.set("sim_mean_rt_ms", s.first.MeanRTMs)
	if cfg.traced {
		res.set("sim.ns_per_req", perPass/float64(s.requests)*1e9)
		res.set("sim.hit_ratio", s.first.HitRatio())
		res.set("sim.local_frac", s.first.LocalFraction())
	}
}

// measureLayerProbes sets the per-layer metrics timed by direct calls:
// the request stream, the hit-ratio model, the estimator, warm-start
// re-placement and the LRU cache. Traced runs only.
func measureLayerProbes(sc *scenario.Scenario, p *core.Placement, cfg runConfig, res *result) error {
	const draws = 200_000

	// workload: Stream.Next.
	st := sc.Stream(xrand.New(cfg.seed))
	d, _ := stopwatch(func() error {
		for k := 0; k < draws; k++ {
			st.Next()
		}
		return nil
	})
	res.set("workload.next_ns", float64(d.Nanoseconds())/draws)

	// lrumodel: one HitRatios per server on a fresh model, at the
	// server's free bytes.
	specs := sc.Work.Specs()
	models := make([]lrumodel.Model, sc.Sys.N())
	for i := range models {
		m, err := lrumodel.New(lrumodel.ModelConfig{
			Specs: specs, Weights: sc.Sys.Demand[i],
			AvgObjectBytes: sc.Work.AvgObjectBytes, MaxCacheBytes: sc.Sys.Capacity[i],
		})
		if err != nil {
			return fmt.Errorf("hit-ratio model: %w", err)
		}
		models[i] = m
	}
	d, _ = stopwatch(func() error {
		for i, m := range models {
			m.HitRatios(p.Free(i))
		}
		return nil
	})
	res.set("lrumodel.hit_ratios_us", float64(d.Microseconds())/float64(len(models)))

	// control: Observe from procs goroutines, then one Roll.
	est, err := control.NewEstimator(control.EstimatorConfig{Servers: sc.Sys.N(), Sites: sc.Sys.M()})
	if err != nil {
		return err
	}
	const observes = 500_000
	d, _ = stopwatch(func() error {
		var wg sync.WaitGroup
		for g := 0; g < cfg.procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				n, m := sc.Sys.N(), sc.Sys.M()
				for k := 0; k < observes; k++ {
					est.Observe((k+g)%n, (k*7+g)%m)
				}
			}(g)
		}
		wg.Wait()
		return nil
	})
	res.set("control.observe_ns", float64(d.Nanoseconds())/float64(observes))
	d, _ = stopwatch(func() error { est.Roll(); return nil })
	res.set("control.roll_ms", float64(d.Nanoseconds())/1e6)

	// placement: a warm-start round after sampling noise alone.
	sys0, err := sc.Sys.WithDemand(normalized(demandCounts(sc, cfg.seed, draws, 0)))
	if err != nil {
		return err
	}
	sys1, err := sc.Sys.WithDemand(normalized(demandCounts(sc, cfg.seed+1, draws, 0)))
	if err != nil {
		return err
	}
	icfg := placement.IncrementalConfig{HybridConfig: hybridConfig(sc)}
	_, prev, _, err := placement.Incremental(nil, sys0, icfg)
	if err != nil {
		return fmt.Errorf("incremental seed: %w", err)
	}
	var stats placement.IncrementalStats
	d, err = stopwatch(func() error {
		_, _, stats, err = placement.Incremental(prev, sys1, icfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	res.set("placement.incremental_s", d.Seconds())
	res.set("placement.dirty_rows", float64(stats.DirtyRows))

	// cache: the busiest server's requests replayed through an LRU at
	// its free bytes.
	busiest := 0
	for i := range sc.Sys.Demand {
		if rowSum(sc.Sys.Demand[i]) > rowSum(sc.Sys.Demand[busiest]) {
			busiest = i
		}
	}
	var keys []cache.Key
	var sizes []int64
	st = sc.Stream(xrand.New(cfg.seed + 2))
	// Bounded: a server that replicates every site it sees has no
	// cache traffic at all.
	for k := 0; k < 20*draws && len(keys) < draws; k++ {
		r := st.Next()
		if r.Server == busiest && r.Cacheable && !p.Has(busiest, r.Site) {
			keys = append(keys, cache.Key{Site: r.Site, Object: r.Object})
			sizes = append(sizes, sc.Work.Size(r.Site, r.Object))
		}
	}
	lru := cache.NewLRU(p.Free(busiest))
	var hits int
	d, _ = stopwatch(func() error {
		for k, key := range keys {
			if lru.Get(key) {
				hits++
			} else {
				lru.Put(key, sizes[k])
			}
		}
		return nil
	})
	n := float64(max(len(keys), 1))
	res.set("cache.get_put_ns", float64(d.Nanoseconds())/n)
	res.set("cache.hit_ratio", float64(hits)/n)
	return nil
}

func rowSum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// normalized turns request counts into a demand matrix summing to 1.
func normalized(counts [][]int64) [][]float64 {
	var total int64
	for _, row := range counts {
		for _, n := range row {
			total += n
		}
	}
	out := make([][]float64, len(counts))
	for i, row := range counts {
		out[i] = make([]float64, len(row))
		for j, n := range row {
			out[i][j] = float64(n) / float64(total)
		}
	}
	return out
}

// timedSource hands the simulator one request at a time and records
// each request's service time: from handing it over until the simulator,
// which serves requests one after another, asks for the next.
type timedSource struct {
	next   func() workload.Request
	handed time.Time
	n      int64
	lat    latencyHist
}

func (s *timedSource) Next() (workload.Request, bool) {
	if s.n > 0 {
		s.lat.observe(time.Since(s.handed))
	}
	r := s.next()
	s.n++
	s.handed = time.Now()
	return r, true
}

// measureSimService runs one simulator pass of n requests through a
// timedSource and returns it; the last request's service time ends when
// the run returns.
func measureSimService(ctx context.Context, sc *scenario.Scenario, p *core.Placement, n int, cfg runConfig) (*timedSource, error) {
	st := sc.Stream(xrand.New(cfg.seed + 3))
	src := &timedSource{next: st.Next}
	runtime.GC()
	m, err := sim.RunSource(ctx, sc, p, simConfig(n), src)
	if err != nil {
		return nil, fmt.Errorf("simulator service times: %w", err)
	}
	src.lat.observe(time.Since(src.handed))
	if err := checkSim(m); err != nil {
		return nil, err
	}
	return src, nil
}
