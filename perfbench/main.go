// Command perfbench is the repository benchmark: it serves a generated
// workload from an in-process Avatica server over a core.Framework at
// default settings, drives it with a closed loop of Avatica clients, checks
// every response against a reference, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). The
// last line of standard output is the JSON result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// A run sets the workload up at least minSetups times and until
// minSetupTime has passed (at most maxSetups times); setup_s is the median,
// so a set-up of a few milliseconds is still measured steadily.
const (
	minSetups    = 3
	maxSetups    = 40
	minSetupTime = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve_hot, plan_adhoc, analytic, analytic_spill or spill_hang")
	seed := flag.Int64("seed", 1, "seed of the generated data and statement streams")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory of the traced run's span files")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds, trace int, outDir string) (*result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return nil, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	host := newHostRecord(w, seed, seconds, trace)
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(hostLine))

	clock := startStealClock()
	defer clock.stopClock()
	var e *env
	var spans [][2]time.Time
	for spent := time.Duration(0); len(spans) < maxSetups && (len(spans) < minSetups || spent < minSetupTime); {
		if e != nil {
			e.stop()
			e = nil
			runtime.GC()
		}
		start := time.Now()
		if e, err = setupEnv(w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spans = append(spans, [2]time.Time{start, time.Now()})
		spent += spans[len(spans)-1][1].Sub(start)
	}
	defer e.stop()
	e.clock = clock
	clock.settle(time.Now())
	setups := make([]time.Duration, len(spans))
	for i, s := range spans {
		setups[i] = clock.between(s[0], s[1])
	}
	o, err := buildOracle(e.fw, seed, referenceStatements(w, e.pool), runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	// The measured loop starts from a collected heap, not from the garbage
	// of the reference runs.
	runtime.GC()
	dur := time.Duration(seconds) * time.Second
	if trace == 1 {
		return runTraced(e, o, host, dur, outDir)
	}
	fmt.Printf("set-up ran %d times\n", len(setups))
	return runUntraced(e, o, dur, sortedCopy(setups)[len(setups)/2])
}

func (e *env) clients(respBytes *atomic.Int64) ([]*client, error) {
	clients := make([]*client, e.w.clients)
	for i := range clients {
		c, err := e.newClient(respBytes)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	closeIdle(clients)
	return clients, nil
}

func closeIdle(clients []*client) {
	for _, c := range clients {
		c.transport.CloseIdleConnections()
	}
}

// runUntraced is the --trace 0 run: the end-to-end metrics.
func runUntraced(e *env, o *oracle, dur, setup time.Duration) (*result, error) {
	setupRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var respBytes atomic.Int64
	clients, err := e.clients(&respBytes)
	if err != nil {
		return nil, err
	}
	g0, err := settledGoroutines(e.addr)
	if err != nil {
		return nil, err
	}
	r := e.closedLoop(clients, o, dur, nil)
	closeIdle(clients)
	g1, err := settledGoroutines(e.addr)
	if err != nil {
		return nil, err
	}
	m, err := scrape(e.addr)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	printLoop("run", e.w, r)
	fmt.Printf("peak_rss_mb %.1f MB after set-up, %.1f MB at the end\n", setupRSS, rss)
	fmt.Printf("avatica.goroutines_leaked %.0f count\n", g1-g0)
	fmt.Printf("avatica.cursor_bytes_retained %.0f B\n", m["calcite_cursor_retained_bytes"])
	metrics := map[string]metric{
		"qps":         {r.qps(), "1/s"},
		"setup_s":     {setup.Seconds(), "s"},
		"peak_rss_mb": {rss, "MB"},
	}
	if p50, ok := percentile(sortedCopy(r.lat), 0.5); ok {
		metrics["latency_p50_ms"] = metric{ms(p50), "ms"}
	}
	return &result{
		Correct:   r.failures[failWrong] == 0,
		Attempted: len(r.lat),
		Failed:    r.failed(),
		Metrics:   metrics,
	}, nil
}

// printLoop writes a closed-loop run's summary: every percentile that has
// ten samples beyond it, the error ratio and the per-class medians.
func printLoop(label string, w *workload, r *loopResult) {
	n := len(r.lat)
	fmt.Printf("%s: workload %s, %d clients, %d requests in %.2f s, %d verified, error_ratio %.4f, host CPU steal %.1f%% of busy time\n",
		label, w.name, w.clients, n, r.elapsed.Seconds(), r.ok, ratioOf(float64(r.failed()), float64(n)), 100*r.steal)
	fmt.Printf("  qps %.3f 1/s (median round of %d requests per client; %.3f over the whole run)\n",
		r.qps(), w.round, float64(r.ok)/r.elapsed.Seconds())
	lat := sortedCopy(r.lat)
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if v, ok := percentile(lat, p); ok {
			fmt.Printf("  latency_p%.0f_ms %.3f ms (n=%d)\n", p*100, ms(v), n)
		} else {
			fmt.Printf("  latency_p%.0f_ms not reported: fewer than ten of %d samples beyond it\n", p*100, n)
		}
	}
	if len(r.failures) > 0 {
		fmt.Printf("  failures %v; first: %s\n", r.failures, r.firstErr)
	}
	names := make([]string, 0, len(r.perClass))
	for c := range r.perClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		s := sortedCopy(r.perClass[c])
		med, _ := percentile(s, 0.5)
		fmt.Printf("  class %-7s %5d verified, median %.3f ms\n", c, len(s), ms(med))
	}
}
