package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"calcite/internal/avatica"
	"calcite/internal/core"
	"calcite/internal/exec"
	"calcite/internal/memory"
	"calcite/internal/parallel"
	"calcite/internal/parser"
	"calcite/internal/rel"
	"calcite/internal/sql2rel"
)

// span is one timed interval of the traced run. Spans of one request share
// Request; Parent is the index of the enclosing span (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Note    string `json:"note,omitempty"`
}

// spanLog keeps the spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func (l *spanLog) newRequest() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reqs++
	return l.reqs
}

func (l *spanLog) add(name string, parent, req int, start, end time.Time, note string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Request: req, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)), Note: note})
	return id
}

func (l *spanLog) end(id int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = int64(end.Sub(l.t0))
}

// selfTimes sums each span name's self time: its duration minus the part
// of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// Execution configurations of the embedded layer calls.
const (
	cfgPn  = iota // default parallelism, ungoverned
	cfgP1         // serial, ungoverned
	cfgGov        // default parallelism under spillQueryLimit
	numCfgs
)

var cfgNames = [numCfgs]string{"pn", "p1", "governed"}

// spillRatio names the memory.spill_slowdown row of a ratio class.
var spillRatio = map[string]string{"star": "join", "agg": "agg", "sort": "sort", "stream": "stream"}

// ratioSamples is how many times the ratio table runs each class under
// each configuration.
const ratioSamples = 2

// replayer times one client's statements layer by layer, embedded, on
// frameworks that share the server's catalog.
type replayer struct {
	t     *tracedRun
	fws   [numCfgs]*core.Framework
	layer int
	// plans emulates the server's prepared-plan cache, so a statement the
	// server answers from its cache is not re-planned here either.
	plans map[string]rel.Node
	fifo  []string
}

// tracedRun accumulates the layer measurements of every replayer.
type tracedRun struct {
	e   *env
	log *spanLog

	mu            sync.Mutex
	err           error
	requests      int
	optimizes     int
	rulesFired    int
	relExprs      int
	allocs, bytes uint64
	bookkeeping   time.Duration
	bookkept      int
	wire          time.Duration
	wired         int
	streamExec    time.Duration
	streamRuns    int
	ratio         map[string]*[numCfgs]time.Duration
	ratioFailed   map[string]string
	serialize     time.Duration
}

func newReplayer(t *tracedRun) *replayer {
	r := &replayer{t: t, plans: map[string]rel.Node{}}
	for c := range r.fws {
		fw := core.New()
		fw.Catalog = t.e.fw.Catalog
		switch c {
		case cfgP1:
			fw.Parallelism = 1
		case cfgGov:
			fw.QueryMemoryLimit = spillQueryLimit
		}
		r.fws[c] = fw
	}
	if t.e.w.queryMem > 0 {
		r.layer = cfgGov
	}
	return r
}

// plan returns the cached plan of sql, or parses, converts and optimizes
// it under spans.
func (r *replayer) plan(sql string, root, req int) (rel.Node, error) {
	if p, ok := r.plans[sql]; ok {
		return p, nil
	}
	fw := r.fws[r.layer]
	log := r.t.log
	a := time.Now()
	ast, err := parser.Parse(sql)
	b := time.Now()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	logical, err := sql2rel.New(fw.Catalog).Convert(ast)
	c := time.Now()
	if err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	physical, err := fw.Optimize(logical)
	d := time.Now()
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	if root >= 0 {
		log.add("parser.parse", root, req, a, b, "")
		log.add("sql2rel.convert", root, req, b, c, "")
		log.add("plan.optimize", root, req, c, d, "")
		r.t.mu.Lock()
		r.t.optimizes++
		if vp := fw.LastPlanner; vp != nil {
			r.t.rulesFired += vp.Fired
			r.t.relExprs += vp.ExpressionCount()
		}
		r.t.mu.Unlock()
	}
	if len(r.fifo) >= core.DefaultPlanCacheSize {
		delete(r.plans, r.fifo[0])
		r.fifo = r.fifo[1:]
	}
	r.plans[sql] = physical
	r.fifo = append(r.fifo, sql)
	return physical, nil
}

// execute runs an optimized plan the way Framework.ExecutePhysical does,
// with the statement's parameters bound (ExecutePhysical takes none).
func execute(fw *core.Framework, plan rel.Node, params []any) ([][]any, error) {
	if len(params) == 0 {
		return fw.ExecutePhysical(plan)
	}
	ctx := exec.NewContext()
	ctx.Evaluator.Params = params
	ctx.BatchSize = fw.BatchSize
	governed := fw.QueryMemoryLimit > 0
	if governed {
		ctx.Alloc = memory.NewAllocator(fw.MemoryPool(), fw.QueryMemoryLimit, true)
		defer ctx.Alloc.Close()
	}
	root := plan
	if p := fw.EffectiveParallelism(); p > 1 {
		root = parallel.ParallelizeWith(plan, fw.WorkerPool(), p, parallel.Options{SerialJoins: governed})
	}
	return exec.Execute(ctx, root)
}

// timedExec executes under a deadline; a hung execution is abandoned.
func (r *replayer) timedExec(cfg int, plan rel.Node, params []any) (rows [][]any, start, end time.Time, err error) {
	start = time.Now()
	rows, err = within(r.t.e.w.deadline, func() ([][]any, error) {
		return execute(r.fws[cfg], plan, params)
	})
	return rows, start, time.Now(), err
}

// replay is the traced run's afterFunc: it records the request's wire
// spans, then times each layer call of the same statement embedded.
func (r *replayer) replay(st stmt, t0, t1 time.Time, out outcome) {
	t, log := r.t, r.t.log
	req := log.newRequest()
	root := log.add("request", -1, req, t0, t1, st.class.name)
	note := ""
	if out.err != nil {
		note = out.err.Error()
	}
	rt := log.add("avatica.roundtrip", root, req, t0, t1, note)
	server := time.Duration(out.serverMs * float64(time.Millisecond))
	if out.err == nil {
		mid := t0.Add((t1.Sub(t0) - server) / 2)
		log.add("core.execute_opts", rt, req, mid, mid.Add(server), "server-reported elapsedMs")
	}
	fail := func(err error) {
		t.mu.Lock()
		if t.err == nil {
			t.err = fmt.Errorf("replay %s %q: %w", st.class.name, st.sql, err)
		}
		t.mu.Unlock()
	}
	a := time.Now()
	plan, err := r.plan(st.sql, root, req)
	if err != nil {
		fail(err)
		return
	}
	planned := time.Since(a)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rows, es, ee, execErr := r.timedExec(r.layer, plan, st.params)
	runtime.ReadMemStats(&ms1)
	execNote := ""
	if execErr != nil {
		execNote = execErr.Error()
	}
	log.add("exec.execute", root, req, es, ee, execNote)
	if execErr != nil && execErr != errDeadline {
		fail(execErr)
		return
	}

	sent := rows
	if n := len(out.rows); n < len(sent) {
		sent = sent[:n]
	}
	sa := time.Now()
	_, err = json.Marshal(avatica.ExecuteResponse{Columns: plan.RowType().FieldNames(), ColumnTypes: columnTypes(sent), Rows: sent})
	sb := time.Now()
	if err != nil {
		fail(err)
		return
	}
	log.add("avatica.serialize", root, req, sa, sb, "")

	t.mu.Lock()
	t.requests++
	t.allocs += ms1.Mallocs - ms0.Mallocs
	t.bytes += ms1.TotalAlloc - ms0.TotalAlloc
	t.serialize += sb.Sub(sa)
	if out.err == nil {
		t.bookkeeping += server - planned - ee.Sub(es)
		t.bookkept++
		t.wire += t1.Sub(t0) - server
		t.wired++
	}
	if st.class.name == "stream" && execErr == nil {
		t.streamExec += ee.Sub(es)
		t.streamRuns++
	}
	t.mu.Unlock()
	log.end(root, time.Now())
}

// ratioTable executes each ratio class's plan ratioSamples times under
// every configuration, for the parallel speedup (P1 over Pn) and spill
// slowdown (governed over Pn) tables. A run that fails or misses the
// deadline enters at the deadline, as a failed request does in the latency
// percentiles, and its configuration is not run again.
func (r *replayer) ratioTable() error {
	t := r.t
	for _, c := range t.e.w.ratios {
		st := stmt{class: c, sql: c.sql}
		if c.domain != nil {
			st.params = c.domain[0]
		}
		plan, err := r.plan(st.sql, -1, 0)
		if err != nil {
			return err
		}
		req := t.log.newRequest()
		root := t.log.add("ratio", -1, req, time.Now(), time.Now(), c.name)
		var sum [numCfgs]time.Duration
		var runs [numCfgs]int
		var failed [numCfgs]bool
		for i := 0; i < ratioSamples; i++ {
			for cfg := range sum {
				if failed[cfg] || (cfg == cfgGov && spillRatio[c.name] == "") {
					continue
				}
				_, s, e, err := r.timedExec(cfg, plan, st.params)
				note := ""
				if err != nil {
					note = err.Error()
				}
				t.log.add("ratio.exec."+cfgNames[cfg], root, req, s, e, note)
				if err != nil {
					t.ratioFailed[c.name+"/"+cfgNames[cfg]] = note
					sum[cfg], runs[cfg], failed[cfg] = t.e.w.deadline, 1, true
					continue
				}
				sum[cfg] += e.Sub(s)
				runs[cfg]++
			}
		}
		t.log.end(root, time.Now())
		var mean [numCfgs]time.Duration
		for cfg := range sum {
			if runs[cfg] > 0 {
				mean[cfg] = sum[cfg] / time.Duration(runs[cfg])
			}
		}
		t.ratio[c.name] = &mean
	}
	return nil
}

// columnTypes tags each column by the Go type of its first non-NULL value,
// as the server does for its responses.
func columnTypes(rows [][]any) []string {
	if len(rows) == 0 {
		return nil
	}
	out := make([]string, len(rows[0]))
	for i := range out {
		for _, row := range rows {
			if row[i] != nil {
				out[i] = fmt.Sprintf("%T", row[i])
				break
			}
		}
	}
	return out
}

// serverCounters are the public counters the per-layer metrics difference
// across the untraced phase.
type serverCounters struct {
	plan    core.PlanCacheCounters
	mem     memory.PoolCounters
	replans int64
	morsels int64
	metrics map[string]float64
}

func readCounters(e *env) (serverCounters, error) {
	m, err := scrape(e.addr)
	if err != nil {
		return serverCounters{}, err
	}
	return serverCounters{
		plan:    e.fw.PlanCache().Counters(),
		mem:     e.fw.MemoryPool().Counters(),
		replans: e.fw.Feedback().Counters().Replans,
		morsels: e.fw.WorkerPool().MorselsDispatched(),
		metrics: m,
	}, nil
}

// sampleUtilization samples the server's worker pool every millisecond
// until stop closes, and returns the mean busy share of its parallelism.
func sampleUtilization(pool *parallel.Pool, stop <-chan struct{}) float64 {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var busy, n int64
	for {
		select {
		case <-stop:
			if n == 0 {
				return 0
			}
			return float64(busy) / float64(n) / float64(pool.Parallelism())
		case <-tick.C:
			busy += pool.Busy()
			n++
		}
	}
}

// runTraced is the --trace 1 run: an untraced phase for the server-side
// counters and the latency baseline, then a traced replay of the same
// seeded statements for the layer self times and the ratio tables.
func runTraced(e *env, o *oracle, host hostRecord, dur time.Duration, outDir string) (*result, error) {
	w := e.w
	var respBytes atomic.Int64
	clients, err := e.clients(&respBytes)
	if err != nil {
		return nil, err
	}
	g0, err := settledGoroutines(e.addr)
	if err != nil {
		return nil, err
	}
	c0, err := readCounters(e)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	util := make(chan float64, 1)
	go func() { util <- sampleUtilization(e.fw.WorkerPool(), stop) }()
	untraced := e.closedLoop(clients, o, dur/2, nil)
	close(stop)
	utilization := <-util
	closeIdle(clients)
	g1, err := settledGoroutines(e.addr)
	if err != nil {
		return nil, err
	}
	c1, err := readCounters(e)
	if err != nil {
		return nil, err
	}

	t := &tracedRun{e: e, log: &spanLog{},
		ratio: map[string]*[numCfgs]time.Duration{}, ratioFailed: map[string]string{}}
	reps := make([]*replayer, len(clients))
	for i := range reps {
		reps[i] = newReplayer(t)
		for _, st := range warmStatements(w) {
			if _, err := reps[i].plan(st.sql, -1, 0); err != nil {
				return nil, fmt.Errorf("warm replay plans: %w", err)
			}
		}
	}
	t.log.t0 = time.Now()
	traced := e.closedLoop(clients, o, dur/2, func(ci int, st stmt, t0, t1 time.Time, out outcome) {
		reps[ci].replay(st, t0, t1, out)
	})
	closeIdle(clients)
	if t.err != nil {
		return nil, t.err
	}
	if err := reps[0].ratioTable(); err != nil {
		return nil, err
	}

	n := float64(max(len(untraced.lat), 1))
	nt := float64(max(t.requests, 1))
	self := selfTimes(t.log.spans)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / nt }
	metrics := map[string]metric{
		"parser.parse_us":            {us(self["parser.parse"]), "us"},
		"sql2rel.convert_us":         {us(self["sql2rel.convert"]), "us"},
		"plan.optimize_us":           {us(self["plan.optimize"]), "us"},
		"plan.rules_fired":           {perN(float64(t.rulesFired), t.optimizes), "count"},
		"plan.rel_exprs":             {perN(float64(t.relExprs), t.optimizes), "count"},
		"core.bookkeeping_us":        {perN(float64(t.bookkeeping)/1e3, t.bookkept), "us"},
		"exec.execute_ms":            {us(self["exec.execute"]) / 1e3, "ms"},
		"exec.allocs_per_query":      {float64(t.allocs) / nt, "count"},
		"exec.alloc_bytes_per_query": {float64(t.bytes) / nt, "B"},
		"avatica.wire_ms":            {perN(float64(t.wire)/1e6, t.wired), "ms"},
		"avatica.serialize_us":       {us(t.serialize), "us"},
	}
	lookups := float64(c1.plan.Hits+c1.plan.Misses) - float64(c0.plan.Hits+c0.plan.Misses)
	metrics["core.plancache_lookups"] = metric{lookups, "count"}
	metrics["core.plancache_hit_ratio"] = metric{ratioOf(float64(c1.plan.Hits-c0.plan.Hits), lookups), "ratio"}
	metrics["feedback.replans_per_kq"] = metric{float64(c1.replans-c0.replans) * 1000 / n, "count/kq"}
	metrics["parallel.morsels_per_query"] = metric{float64(c1.morsels-c0.morsels) / n, "count"}
	metrics["parallel.worker_utilization"] = metric{utilization, "ratio"}
	metrics["memory.spill_bytes_per_query"] = metric{float64(c1.mem.SpillBytes-c0.mem.SpillBytes) / n, "B"}
	metrics["memory.spill_files_per_query"] = metric{float64(c1.mem.SpillFiles-c0.mem.SpillFiles) / n, "count"}
	metrics["memory.denials_per_query"] = metric{float64(c1.mem.Denials-c0.mem.Denials) / n, "count"}
	waitNs := c1.metrics["calcite_admission_wait_ns_total"] - c0.metrics["calcite_admission_wait_ns_total"]
	admitted := c1.metrics["calcite_admission_admitted_total"] - c0.metrics["calcite_admission_admitted_total"]
	metrics["avatica.admission_wait_ms"] = metric{ratioOf(waitNs/1e6, admitted), "ms"}
	metrics["avatica.response_bytes_per_query"] = metric{float64(respBytes.Load()) / float64(len(untraced.lat)+len(traced.lat)), "B"}
	metrics["avatica.fetch_frames_per_query"] = metric{float64(untraced.fetches) / n, "count"}
	metrics["avatica.goroutines_leaked"] = metric{g1 - g0, "count"}
	metrics["avatica.cursor_bytes_retained"] = metric{c1.metrics["calcite_cursor_retained_bytes"], "B"}
	metrics["stream.events_per_s"] = metric{0, "1/s"}
	if t.streamRuns > 0 {
		metrics["stream.events_per_s"] = metric{float64(w.events) * float64(t.streamRuns) / t.streamExec.Seconds(), "1/s"}
	}
	for _, c := range []string{"star", "agg", "window", "sort", "stream"} {
		v := 0.0
		if acc := t.ratio[c]; acc != nil {
			v = ratioOf(float64(acc[cfgP1]), float64(acc[cfgPn]))
		}
		metrics["parallel.speedup."+c] = metric{v, "ratio"}
	}
	for c, name := range spillRatio {
		v := 0.0
		if acc := t.ratio[c]; acc != nil {
			v = ratioOf(float64(acc[cfgGov]), float64(acc[cfgPn]))
		}
		metrics["memory.spill_slowdown."+name] = metric{v, "ratio"}
	}
	base := sortedCopy(untraced.lat)
	tracedRT := sortedCopy(traced.lat)
	p50u, _ := percentile(base, 0.5)
	p50t, _ := percentile(tracedRT, 0.5)
	metrics["trace.overhead_ms"] = metric{ms(p50t - p50u), "ms"}

	// The layer self times plus the wire should roughly add up to the
	// untraced latency.
	layerSum := metrics["parser.parse_us"].Value/1e3 + metrics["sql2rel.convert_us"].Value/1e3 +
		metrics["plan.optimize_us"].Value/1e3 + metrics["exec.execute_ms"].Value +
		metrics["core.bookkeeping_us"].Value/1e3 + metrics["avatica.wire_ms"].Value
	fmt.Printf("layer sum %.3f ms (parse+convert+optimize+exec+bookkeeping+wire, means per request) vs untraced mean %.3f ms, median %.3f ms\n",
		layerSum, ms(mean(untraced.lat)), ms(p50u))
	for k, v := range t.ratioFailed {
		fmt.Printf("ratio run %s %s\n", k, v)
	}
	path, err := writeSpans(outDir, host, t, self, metrics)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d spans of %d requests written to %s\n", len(t.log.spans), t.requests, path)
	printLoop("untraced phase", w, untraced)
	printLoop("traced phase", w, traced)

	wrong := untraced.failures[failWrong] + traced.failures[failWrong]
	return &result{
		Correct:   wrong == 0,
		Attempted: len(untraced.lat) + len(traced.lat),
		Failed:    untraced.failed() + traced.failed(),
		Metrics:   metrics,
	}, nil
}

func perN(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var s time.Duration
	for _, v := range d {
		s += v
	}
	return s / time.Duration(len(d))
}

func writeSpans(dir string, host hostRecord, t *tracedRun, self map[string]time.Duration, metrics map[string]metric) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	selfUs := map[string]float64{}
	for k, v := range self {
		selfUs[k] = float64(v) / 1e3
	}
	doc := struct {
		Host      hostRecord         `json:"host"`
		Requests  int                `json:"requests"`
		SelfUs    map[string]float64 `json:"self_time_us_total"`
		RatioHung map[string]string  `json:"ratio_runs_failed,omitempty"`
		Metrics   map[string]metric  `json:"metrics"`
		Spans     []span             `json:"spans"`
	}{host, t.requests, selfUs, t.ratioFailed, metrics, t.log.spans}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", host.Workload, host.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
