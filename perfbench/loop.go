package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"calcite"
	"calcite/internal/avatica"
	"calcite/internal/core"
)

// env is one set-up of a workload: its tables in a framework at default
// settings (plus the workload's memory limit) and the server over it.
type env struct {
	w    *workload
	seed int64
	fw   *core.Framework
	srv  *avatica.Server
	addr string
	pool []stmt
	// clock times the loop; see stealClock.
	clock *stealClock
}

var errDeadline = errors.New("deadline exceeded")

// within runs fn and gives up waiting after d. A call that never returns
// is left running: the engine offers no way to stop it.
func within[T any](d time.Duration, fn func() (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := fn()
		done <- result{v, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.v, r.err
	case <-timer.C:
		var zero T
		return zero, errDeadline
	}
}

// setupEnv generates the data, registers the tables, warms every class
// once on the framework and starts the server: the work setup_s times.
func setupEnv(w *workload, seed int64) (*env, error) {
	fw := core.New()
	fw.QueryMemoryLimit = w.queryMem
	if err := w.load(&calcite.Connection{Framework: fw}, seed); err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, fw: fw}
	if w.adhoc > 0 {
		e.pool = adhocPool(w.classes[0], seed, w.adhoc)
	}
	for _, st := range warmStatements(w) {
		_, err := within(w.deadline, func() (*core.Result, error) {
			return fw.ExecuteOpts(st.sql, core.ExecOptions{Params: st.params})
		})
		if err != nil {
			// A class the configuration cannot run still counts against
			// the run; the reference engine rejects broken statements.
			fmt.Printf("warm-up %s failed: %v\n", st.class.name, err)
		}
	}
	e.srv = avatica.NewServer(fw)
	addr, err := e.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = addr
	return e, nil
}

func (e *env) stop() { e.srv.Stop() }

// countingBody counts response bytes as the client reads them.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingTransport struct {
	base  *http.Transport
	bytes *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, t.bytes}
	}
	return resp, err
}

// client is one closed-loop caller with its own connection and its own
// prepared statements.
type client struct {
	api       *avatica.Client
	transport *http.Transport
	stmtIDs   map[*class]int64
}

func (e *env) newClient(bytes *atomic.Int64) (*client, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	api := avatica.NewClient(e.addr)
	api.HTTP = &http.Client{Transport: countingTransport{tr, bytes}}
	c := &client{api: api, transport: tr, stmtIDs: map[*class]int64{}}
	for _, cls := range e.w.classes {
		if !cls.prepared {
			continue
		}
		id, err := api.Prepare(cls.sql)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", cls.name, err)
		}
		c.stmtIDs[cls] = id
	}
	return c, nil
}

// outcome is what one request returned.
type outcome struct {
	rows     [][]any
	serverMs float64
	fetches  int
	err      error
}

// do runs one statement over the wire before deadline: the execute call,
// then the /fetch frames of a paginated class, then the release of a
// cursor left partly read.
func (c *client) do(st stmt, deadline time.Time) outcome {
	call := func() error {
		left := time.Until(deadline)
		if left <= 0 {
			return errDeadline
		}
		c.api.HTTP.Timeout = left
		return nil
	}
	req := avatica.ExecuteRequest{Params: st.params, FetchSize: st.class.fetchSize}
	if id, ok := c.stmtIDs[st.class]; ok {
		req.StatementID = id
	} else {
		req.SQL = st.sql
	}
	if err := call(); err != nil {
		return outcome{err: err}
	}
	resp, err := c.api.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{rows: resp.Rows, serverMs: resp.ElapsedMs}
	more, id := resp.More, resp.StatementID
	for more && (st.class.frames == 0 || out.fetches+1 < st.class.frames) {
		if err := call(); err != nil {
			return outcome{err: err}
		}
		frame, err := c.api.Fetch(id, st.class.fetchSize)
		if err != nil {
			return outcome{err: err}
		}
		out.rows = append(out.rows, frame.Rows...)
		out.fetches++
		more = frame.More
	}
	switch {
	case more && req.StatementID != 0:
		err = c.api.Cancel(id) // drop the unread remainder, keep the statement
	case id != 0 && req.StatementID == 0:
		err = c.api.Close(id) // the implicit statement of a paginated direct query
	}
	if err != nil {
		return outcome{err: err}
	}
	return out
}

// failure classes of a request.
const (
	failTimeout = "timeout"
	failBusy    = "busy"
	failError   = "error"
	failWrong   = "wrong_result"
)

func classify(err error) string {
	var ne net.Error
	switch {
	case errors.Is(err, errDeadline), errors.As(err, &ne) && ne.Timeout():
		return failTimeout
	case errors.Is(err, avatica.ErrServerBusy):
		return failBusy
	}
	return failError
}

// loopResult is one closed-loop run. Its durations are read on the
// benchmark's clock (see stealClock).
type loopResult struct {
	// lat holds every attempted request; a failed one enters at no less
	// than the deadline.
	lat      []time.Duration
	ok       int
	failures map[string]int
	firstErr string
	// perClass holds the latencies of verified requests by class.
	perClass map[string][]time.Duration
	// rounds holds each client's verified requests per second over each of
	// its complete rounds.
	rounds  [][]float64
	fetches int
	// elapsed is the wall time of the loop.
	elapsed time.Duration
	// steal is the share of the busy CPU time the hypervisor gave to
	// other guests during the loop: on a shared virtual machine, the main
	// source of run-to-run spread, which the clock takes out.
	steal float64
}

// qps sums each client's median round rate.
func (r *loopResult) qps() float64 {
	total := 0.0
	for _, rates := range r.rounds {
		if len(rates) == 0 {
			continue
		}
		s := append([]float64(nil), rates...)
		sort.Float64s(s)
		total += s[(len(s)-1)/2]
	}
	return total
}

func (r *loopResult) failed() int { return len(r.lat) - r.ok }

// afterFunc observes each request on its client's goroutine (the traced
// run's layer replay); it runs outside the request's latency.
type afterFunc func(client int, st stmt, t0, t1 time.Time, out outcome)

// request and round are the wall-clock records of a loop, read on the
// benchmark's clock once it has ended.
type request struct {
	class  string
	t0, t1 time.Time
	ok     bool
}

type round struct {
	start, end time.Time
	ok         int
}

// closedLoop drives the workload's clients for dur: each sends its next
// statement only when the previous reply is in and verified. Requests in
// flight at the end run to completion (at most one deadline).
func (e *env) closedLoop(clients []*client, o *oracle, dur time.Duration, after afterFunc) *loopResult {
	res := &loopResult{failures: map[string]int{}, perClass: map[string][]time.Duration{},
		rounds: make([][]float64, len(clients))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var reqs []request
	rounds := make([][]round, len(clients))
	total0, idle0, steal0 := cpuTicks()
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			s := newStream(e.w, e.pool, e.seed, ci)
			roundStart, inRound, okInRound := time.Now(), 0, 0
			for time.Since(start) < dur {
				st := s.next()
				t0 := time.Now()
				out := c.do(st, t0.Add(e.w.deadline))
				t1 := time.Now()
				if out.err == nil {
					if err := o.check(st, out.rows); err != nil {
						out.err = fmt.Errorf("%w: %v", errWrong, err)
					}
				}
				mu.Lock()
				reqs = append(reqs, request{st.class.name, t0, t1, out.err == nil})
				if out.err == nil {
					res.ok++
				} else {
					kind := failWrong
					if !errors.Is(out.err, errWrong) {
						kind = classify(out.err)
					}
					res.failures[kind]++
					if res.firstErr == "" {
						res.firstErr = fmt.Sprintf("%s (%s): %v", st.class.name, kind, out.err)
					}
				}
				res.fetches += out.fetches
				res.elapsed = max(res.elapsed, t1.Sub(start))
				mu.Unlock()
				if inRound++; out.err == nil {
					okInRound++
				}
				if inRound == e.w.round {
					now := time.Now()
					rounds[ci] = append(rounds[ci], round{roundStart, now, okInRound})
					roundStart, inRound, okInRound = now, 0, 0
				}
				if after != nil {
					after(ci, st, t0, t1, out)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	total1, idle1, steal1 := cpuTicks()
	res.steal, _ = stealShare(total1-total0, idle1-idle0, steal1-steal0)
	e.clock.settle(time.Now())
	for _, r := range reqs {
		lat := e.clock.between(r.t0, r.t1)
		if r.ok {
			res.perClass[r.class] = append(res.perClass[r.class], lat)
		} else {
			lat = max(lat, e.w.deadline)
		}
		res.lat = append(res.lat, lat)
	}
	for ci, rs := range rounds {
		for _, r := range rs {
			res.rounds[ci] = append(res.rounds[ci], float64(r.ok)/e.clock.between(r.start, r.end).Seconds())
		}
	}
	return res
}

var errWrong = errors.New("wrong result")

// percentile returns the exact nearest-rank p-quantile of sorted samples
// and whether at least ten samples lie beyond it.
func percentile(sorted []time.Duration, p float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= 10
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
