package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeSize runs every step once on small inputs.
var smokeSize = size{rounds: 1, simRequests: 20_000, tracedRequests: 200}

// TestSmokeWorkloads runs all three workloads small, traced and
// untraced, and checks that every metric BENCHMARK.json names comes out
// with its unit and that no check failed.
func TestSmokeWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			t.Run(name+"/traced="+strconv.FormatBool(traced), func(t *testing.T) {
				res, err := workloads[name](context.Background(), runConfig{
					seed: 3, seconds: 1, procs: 2, traced: traced, size: smokeSize,
				})
				if err != nil {
					t.Fatal(err)
				}
				var table bytes.Buffer
				line, err := res.report(&table, want)
				if err != nil {
					t.Fatal(err)
				}
				var out outputLine
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d:\n%s", out.Correct, out.Attempted, out.Failed, table.String())
				}
				if len(out.Metrics) != len(want) {
					t.Fatalf("%d metrics printed, want %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(table.String(), m.Name) {
						t.Errorf("metric %s missing from the table", m.Name)
					}
				}
			})
		}
	}
}

// TestChecksCatchBadAnswers feeds the client a server that corrupts
// bodies and fails requests: every bad answer must count as a failure.
func TestChecksCatchBadAnswers(t *testing.T) {
	const site, object, size = 2, 5, 1000
	good := func(w http.ResponseWriter, version int) {
		w.Header().Set("X-Cdn-Source", "cache")
		w.Header().Set("Etag", `"/obj/2/5@`+strconv.Itoa(version)+`"`)
		body := make([]byte, size)
		seed := byte(site*31 + object*7 + version*13)
		for i := range body {
			body[i] = seed + byte(i%4096)
		}
		w.Write(body)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("case") {
		case "good":
			good(w, 1)
		case "corrupt":
			w.Header().Set("X-Cdn-Source", "cache")
			w.Header().Set("Etag", `"/obj/2/5@1"`)
			w.Write(bytes.Repeat([]byte{7}, size))
		case "short":
			w.Header().Set("X-Cdn-Source", "cache")
			w.Header().Set("Etag", `"/obj/2/5@1"`)
			w.Write(make([]byte, size/2))
		case "status":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "future":
			good(w, 2)
		case "wrong-object":
			w.Header().Set("X-Cdn-Source", "cache")
			w.Header().Set("Etag", `"/obj/2/6@1"`)
			w.Write(make([]byte, size))
		case "404":
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	tg := &target{
		size:    func(int, int) int64 { return size },
		version: func(int, int) int { return 1 },
	}
	c := newClient()
	defer c.hc.CloseIdleConnections()
	cases := []struct {
		query       string
		stale, fail bool
	}{
		{"good", false, false},
		{"corrupt", false, true},
		{"short", false, true},
		{"status", false, true},
		{"future", false, true},
		{"wrong-object", false, true},
		{"404", false, true},
		{"404", true, false},
		{"good", true, true},
	}
	for _, tc := range cases {
		var st phaseStats
		r := request{url: srv.URL + "/obj/2/5?case=" + tc.query, site: site, object: object, stale: tc.stale}
		c.do(context.Background(), tg, r, &st)
		if got := st.failed == 1; got != tc.fail || st.attempted != 1 {
			t.Errorf("case %s stale=%v: attempted %d failed %d, want failure %v (%v)",
				tc.query, tc.stale, st.attempted, st.failed, tc.fail, st.failures)
		}
	}
}

// TestRunRejectsBadArguments checks the command fails without printing
// a result when it cannot run; the last case runs where no
// BENCHMARK.json is, as in a directory without the repository.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "plan-paper", "--trace", "2"},
		{"--workload", "plan-paper"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for ns := int64(1); ns <= 100_000; ns++ {
		h.observe(time.Duration(ns * 1000))
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100 // ms
		if got := h.quantileMs(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("q%.2f = %.4f ms, want %.4f ± 2%%", q, got, want)
		}
	}
}
