// Command cdnbench is the repository benchmark. It times the CDN from the
// outside, through the public functions of the internal packages, on three
// workloads:
//
//   - edge-local: the single-process HTTP assembly (httpcdn.Start) with
//     generous storage and small objects, so requests stay on the edge's
//     local path (parse, route, cache lookup, body synthesis, write);
//   - cluster-churn: the multi-process stack (clusterd control plane,
//     origin and two edges) run in one process on loopback, with scarce
//     storage, full-size objects, a popularity rotation, stale links,
//     origin version bumps and reconciles at fixed request counts;
//   - plan-paper: the paper's §5.1 instance offline — cold hybrid
//     placement, a controller round on drifted demand, and the simulator.
//
// Every workload reports the same end-to-end metrics (see README.md for
// what each one means on each workload); a traced run reports the
// per-layer metrics instead. The last line of standard output is one JSON
// object for tools (correct, attempted, failed, metrics); the lines before
// it are a table of the same numbers for people.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload plan-paper --seed 7 --seconds 24 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its result. It returns
// the process exit code: 0 once a result line has been printed (whether
// or not every check passed — "correct" carries that), 1 when no result
// could be produced.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (requests, drift, version bumps)")
	seconds := fs.Int("seconds", 24, "measured seconds, spread over the run's rounds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "cdnbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "cdnbench:", err)
		return 1
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	env := describeEnv(procs)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d | %s\n", *name, *seed, *seconds, *trace, env)

	cfg := runConfig{
		seed:    *seed,
		seconds: float64(*seconds),
		procs:   procs,
		traced:  *trace == 1,
		size:    fullSize,
	}
	res, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cdnbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.traced {
		path, err := res.spans.writeFile(".bench_build", *name, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "cdnbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", res.spans.len(), path)
	}
	line, err := res.report(stdout, want)
	if err != nil {
		fmt.Fprintf(stderr, "cdnbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	procs   int
	traced  bool
	size    size
}

// size holds the repetition counts of a run; the self-test shrinks them.
type size struct {
	// rounds is how many timed rounds a workload runs after its untimed
	// warm round; each round sets up afresh, and setup_s is the median.
	rounds int
	// minPassSeconds is how much measured time a serving workload's
	// offline steps, quick on its small scenario, get over the run; their
	// metrics are medians of that many samples.
	minPassSeconds float64
	// simRequests is the request count (warm-up included) of one
	// simulator pass.
	simRequests int
	// tracedRequests bounds the requests of a traced serving phase, so
	// the in-memory span log stays small.
	tracedRequests int
}

var fullSize = size{rounds: 8, minPassSeconds: 2, simRequests: 1_000_000, tracedRequests: 4000}

// runner runs one workload and returns its measurements.
type runner func(ctx context.Context, cfg runConfig) (*result, error)

var workloads = map[string]runner{
	"edge-local":    runEdgeLocal,
	"cluster-churn": runClusterChurn,
	"plan-paper":    runPlanPaper,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names it must print, with their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// describeEnv records what the numbers depend on: CPU model, processor
// count, GOMAXPROCS and Go version.
func describeEnv(procs int) string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d, %s %s/%s",
		model, runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
