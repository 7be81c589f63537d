package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"calcite"
)

// class is one query class of a workload's statement mix.
type class struct {
	name string
	sql  string
	// prepared executes through a statement handle prepared once per client.
	prepared bool
	// domain lists the parameter bindings a request draws from (nil = none).
	// It is finite so the oracle can compute every reference in set-up.
	domain [][]any
	// fetchSize > 0 paginates the result through /fetch; frames > 0 reads
	// only that many frames and then releases the server-side cursor.
	fetchSize, frames int
	// ordered is set when the SQL fixes the row order.
	ordered bool
	// expect, when set, is the generator-formula oracle of the class; the
	// reference engine answers the other classes.
	expect func(seed int64, params []any) [][]any
}

// stmt is one request of a statement stream.
type stmt struct {
	class  *class
	sql    string
	params []any
}

func (s stmt) key() string { return fmt.Sprintf("%s\x00%v", s.sql, s.params) }

// workload is one traffic mix, its data and its server configuration.
type workload struct {
	name    string
	clients int
	// deadline bounds every request, /fetch frames included.
	deadline time.Duration
	// queryMem is the per-query memory limit in bytes (0 = ungoverned).
	queryMem int64
	// classes and schedule: each client cycles through schedule (indices
	// into classes), starting at its own offset.
	classes  []*class
	schedule []int
	// round is the number of requests per client over which qps is taken;
	// qps is the median over the run's rounds, so a transient stall of the
	// host moves it less than a plain count over the run would.
	round int
	// adhoc > 0 replaces the fixed classes by a pool of adhoc distinct
	// generated statements, which the clients cycle through. The pool is
	// four times the 256-entry plan cache, so the least recently used
	// cache never holds a statement when it comes round again.
	adhoc int
	load  func(conn *calcite.Connection, seed int64) error
	// events is the size of s.events (the stream class's input).
	events int
	// ratios are the classes of the traced run's parallel and spill ratio
	// tables: on the analytic workloads every analytic class, agg included
	// where the loop leaves it out.
	ratios []*class
}

// spillQueryLimit is the analytic_spill per-query memory limit: a fixed
// constant (also stated in BENCHMARK.json), about a fifth of the largest
// analytic class's tracked peak (about 20 MiB). It is never derived per run.
const spillQueryLimit = 4 << 20

const (
	demoRows = 10000
	// serveStarRows sizes serve_hot's fact table so a star join costs
	// about as much as a point lookup's round trip: its execution must not
	// dominate the per-request path the workload measures.
	serveStarRows = 2000
	demoGroups    = 97
	analyticRows  = 200000
	analyticGroup = 20000
	adhocFactRows = 1500
	streamEvents  = 400000
)

func intDomain(lo, hi int64) [][]any {
	d := make([][]any, 0, hi-lo)
	for v := lo; v < hi; v++ {
		d = append(d, []any{v})
	}
	return d
}

const starJoin = "FROM fact f JOIN d_cust c ON f.cust_id = c.id " +
	"JOIN d_prod p ON f.prod_id = p.id " +
	"JOIN d_geo g ON f.geo_id = g.id " +
	"JOIN d_time t ON f.time_id = t.id "

func serveHot() *workload {
	point := &class{
		name:     "point",
		sql:      "SELECT id, grp, val, msg FROM demo WHERE id = ?",
		prepared: true,
		domain:   intDomain(1, demoRows+1),
		expect: func(seed int64, params []any) [][]any {
			return [][]any{demoRow(seed, params[0].(int64))}
		},
	}
	star := &class{
		name: "star",
		sql: "SELECT c.label, COUNT(*) AS n, SUM(f.amount) AS total " + starJoin +
			"WHERE p.attr = ? GROUP BY c.label",
		prepared: true,
		domain:   intDomain(0, attrValues),
	}
	page := &class{
		name:      "page",
		sql:       "SELECT id, val FROM demo WHERE grp = ? ORDER BY id",
		prepared:  true,
		domain:    intDomain(0, demoGroups),
		fetchSize: 40,
		ordered:   true,
	}
	return &workload{
		name:     "serve_hot",
		clients:  2,
		deadline: time.Second,
		classes:  []*class{point, star, page},
		schedule: []int{0, 0, 0, 1, 0, 0, 0, 2},
		round:    16,
		load: func(conn *calcite.Connection, seed int64) error {
			addDemo(conn, seed, demoRows)
			addStar(conn, seed, starShape{factRows: serveStarRows, dimRows: [4]int{50, 50, 50, 50}, groups: 100})
			return nil
		},
	}
}

func planAdhoc() *workload {
	return &workload{
		name:     "plan_adhoc",
		clients:  1,
		deadline: 2 * time.Second,
		classes:  []*class{{name: "adhoc"}},
		schedule: []int{0},
		round:    20,
		adhoc:    1024,
		load: func(conn *calcite.Connection, seed int64) error {
			addStar(conn, seed, starShape{factRows: adhocFactRows, dimRows: [4]int{50, 50, 50, 50}, groups: 100})
			return nil
		},
	}
}

// analyticClasses are the large queries of the analytic workloads, by
// name. Each reduces or paginates its result so the wire does little.
func analyticClasses() map[string]*class {
	hop := "HOP(rowtime, INTERVAL '30' SECOND, INTERVAL '120' SECOND)"
	return map[string]*class{
		"star": {
			name: "star",
			sql: "SELECT c.attr, COUNT(*) AS n, SUM(f.amount) AS total " + starJoin +
				"WHERE p.attr < ? AND f.time_id < 25 GROUP BY c.attr",
			prepared: true,
			domain:   [][]any{{int64(6)}, {int64(7)}},
		},
		"agg": {
			name: "agg",
			sql: "SELECT COUNT(*) AS groups_n, SUM(s) AS total, MAX(n) AS max_n " +
				"FROM (SELECT k, COUNT(*) AS n, SUM(amount) AS s FROM fact GROUP BY k) t",
			prepared: true,
		},
		"window": {
			name: "window",
			sql: "SELECT COUNT(*) AS n, SUM(w) AS total FROM (SELECT id, SUM(amount) OVER " +
				"(PARTITION BY cust_id ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS w " +
				"FROM fact WHERE time_id < 20) t",
			prepared: true,
		},
		"sort": {
			name:      "sort",
			sql:       "SELECT id, k, amount FROM fact WHERE time_id < 20 ORDER BY amount DESC, id",
			prepared:  true,
			fetchSize: 100,
			frames:    2,
			ordered:   true,
		},
		"stream": {
			name: "stream",
			sql: "SELECT STREAM HOP_START(rowtime, INTERVAL '30' SECOND, INTERVAL '120' SECOND) AS ws, " +
				"k, COUNT(*) AS c, SUM(v) AS s FROM s.events GROUP BY " + hop + ", k",
			prepared: true,
		},
	}
}

func loadAnalytic(conn *calcite.Connection, seed int64) error {
	addStar(conn, seed, starShape{factRows: analyticRows, dimRows: [4]int{50000, 50, 50, 50}, groups: analyticGroup})
	return addEvents(conn, seed, streamEvents)
}

// analyticWorkload builds an analytic workload over the named classes;
// schedule lists class names in mix order.
func analyticWorkload(name string, queryMem int64, schedule ...string) *workload {
	all := analyticClasses()
	w := &workload{
		name:     name,
		clients:  1,
		deadline: 2 * time.Second,
		queryMem: queryMem,
		load:     loadAnalytic,
		events:   streamEvents,
	}
	for _, n := range []string{"star", "agg", "window", "sort", "stream"} {
		w.ratios = append(w.ratios, all[n])
	}
	index := map[string]int{}
	for _, n := range schedule {
		i, ok := index[n]
		if !ok {
			i = len(w.classes)
			index[n] = i
			w.classes = append(w.classes, all[n])
		}
		w.schedule = append(w.schedule, i)
	}
	w.round = len(w.schedule)
	return w
}

func analytic() *workload {
	return analyticWorkload("analytic", 0, "star", "agg", "window", "sort", "stream")
}

// analyticSpill runs the analytic classes under the fixed per-query limit,
// except agg: at default parallelism under the limit it hangs or fails
// (see spillHang), and a benchmarked workload must not fail. stream runs
// twice a round so the median falls inside one class's latencies.
func analyticSpill() *workload {
	return analyticWorkload("analytic_spill", spillQueryLimit, "star", "stream", "window", "sort", "stream")
}

// spillHang reproduces the defect analytic_spill leaves out: the agg class
// under the same limit. Each request hangs (keeping its admission slot) or
// fails; it is not part of BENCHMARK.json.
func spillHang() *workload {
	return analyticWorkload("spill_hang", spillQueryLimit, "agg")
}

var workloads = []func() *workload{serveHot, planAdhoc, analytic, analyticSpill, spillHang}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, mk := range workloads {
		w := mk()
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// stream is one client's deterministic statement sequence.
type stream struct {
	w    *workload
	rng  *rand.Rand
	pool []stmt
	pos  int
}

func newStream(w *workload, pool []stmt, seed int64, client int) *stream {
	return &stream{
		w:    w,
		rng:  rand.New(rand.NewSource(seed*7919 + int64(client))),
		pool: pool,
		pos:  client * (len(w.schedule)/w.clients + 1),
	}
}

func (s *stream) next() stmt {
	i := s.pos
	s.pos++
	if s.w.adhoc > 0 {
		return s.pool[i%len(s.pool)]
	}
	c := s.w.classes[s.w.schedule[i%len(s.w.schedule)]]
	st := stmt{class: c, sql: c.sql}
	if c.domain != nil {
		st.params = c.domain[s.rng.Intn(len(c.domain))]
	}
	return st
}

// joinMasks are the dimension subsets an ad-hoc statement joins: every
// subset of three or four of the four dimensions, so planning — join
// ordering above all — dominates each statement's cost.
var joinMasks = []int{7, 11, 13, 14, 15}

// adhocPool generates n distinct ad-hoc statements over the star schema:
// shapes vary by join subset, grouping, aggregates, predicates and order,
// with seeded literals, from a space far larger than the plan cache.
func adhocPool(cls *class, seed int64, n int) []stmt {
	rng := rand.New(rand.NewSource(seed))
	aliases := [4]string{"c", "p", "g", "t"}
	fks := [4]string{"cust_id", "prod_id", "geo_id", "time_id"}
	seen := map[string]bool{}
	pool := make([]stmt, 0, n)
	for len(pool) < n {
		// The shape's strata cycle with the statement's index, so every
		// seed gives the same mix of join subsets, groupings and orders;
		// the seed draws the columns, aggregates and literals.
		i := len(pool)
		mask := joinMasks[i%len(joinMasks)]
		var joined []int
		from := "FROM fact f"
		for d := 0; d < 4; d++ {
			if mask&(1<<d) != 0 {
				joined = append(joined, d)
				from += fmt.Sprintf(" JOIN %s %s ON f.%s = %s.id", dimNames[d], aliases[d], fks[d], aliases[d])
			}
		}
		var group []string
		switch (i / len(joinMasks)) % 4 {
		case 1:
			group = []string{aliases[joined[rng.Intn(len(joined))]] + ".label"}
		case 2:
			group = []string{aliases[joined[rng.Intn(len(joined))]] + ".attr"}
		case 3:
			a := aliases[joined[rng.Intn(len(joined))]]
			group = []string{a + ".attr", "f.time_id"}
		}
		aggs := []string{"COUNT(*) AS n", "SUM(f.amount) AS total"}
		if rng.Intn(2) == 0 {
			aggs = append(aggs, "MIN(f.id) AS lo")
		}
		if rng.Intn(2) == 0 {
			aggs = append(aggs, fmt.Sprintf("MAX(%s.attr) AS hi", aliases[joined[rng.Intn(len(joined))]]))
		}
		where := []string{fmt.Sprintf("f.amount >= %d.%d", rng.Intn(40000), rng.Intn(8)*125)}
		if rng.Intn(2) == 0 {
			where = append(where, fmt.Sprintf("%s.attr < %d", aliases[joined[rng.Intn(len(joined))]], 2+rng.Intn(attrValues-2)))
		}
		if rng.Intn(3) == 0 {
			where = append(where, fmt.Sprintf("f.geo_id <> %d", rng.Intn(50)))
		}
		sql := "SELECT " + strings.Join(append(append([]string(nil), group...), aggs...), ", ") +
			" " + from + " WHERE " + strings.Join(where, " AND ")
		ordered := false
		if len(group) > 0 {
			sql += " GROUP BY " + strings.Join(group, ", ")
			if (i/(4*len(joinMasks)))%2 == 0 {
				sql += " ORDER BY " + strings.Join(group, ", ")
				ordered = true
			}
		}
		if seen[sql] {
			continue
		}
		seen[sql] = true
		c := cls
		if ordered {
			oc := *cls
			oc.ordered = true
			c = &oc
		}
		pool = append(pool, stmt{class: c, sql: sql})
	}
	return pool
}

// adhocWarm is plan_adhoc's warm-up: it joins every dimension, so it builds
// the columnar snapshot of every table, and it costs the same for every
// seed. No pooled statement has its text (each has a WHERE clause).
const adhocWarm = "SELECT COUNT(*) AS n, SUM(f.amount) AS total " + starJoin

// warmStatements is one pass of every class: the set-up warm-up.
func warmStatements(w *workload) []stmt {
	if w.adhoc > 0 {
		return []stmt{{class: w.classes[0], sql: adhocWarm}}
	}
	out := make([]stmt, len(w.classes))
	for i, c := range w.classes {
		out[i] = stmt{class: c, sql: c.sql}
		if c.domain != nil {
			out[i].params = c.domain[0]
		}
	}
	return out
}

// referenceStatements lists every distinct statement a run can issue that
// the reference engine must answer.
func referenceStatements(w *workload, pool []stmt) []stmt {
	if w.adhoc > 0 {
		return pool
	}
	var out []stmt
	for _, c := range w.classes {
		if c.expect != nil {
			continue
		}
		if c.domain == nil {
			out = append(out, stmt{class: c, sql: c.sql})
			continue
		}
		for _, p := range c.domain {
			out = append(out, stmt{class: c, sql: c.sql, params: p})
		}
	}
	return out
}
