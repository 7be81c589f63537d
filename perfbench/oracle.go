package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"calcite/internal/core"
)

// maxULPs is the fixed float tolerance of the oracle. The generated data
// makes every SUM exact, so only a genuinely different result exceeds it.
const maxULPs = 16

// oracle holds the reference answer of every statement a run can issue.
type oracle struct {
	seed int64
	refs map[string][][]any
}

// referenceFramework is the serial (P1), uncached, ungoverned engine over
// the catalog of fw.
func referenceFramework(fw *core.Framework) *core.Framework {
	ref := core.New()
	ref.Catalog = fw.Catalog
	ref.Parallelism = 1
	ref.DisablePlanCache = true
	ref.DisableFeedback = true
	return ref
}

// buildOracle computes the references once, in set-up, on workers
// goroutines (each statement still executes serially). Each worker has a
// framework of its own: concurrent planning on one Framework races on its
// LastPlanner field.
func buildOracle(fw *core.Framework, seed int64, stmts []stmt, workers int) (*oracle, error) {
	o := &oracle{seed: seed, refs: make(map[string][][]any, len(stmts))}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan stmt)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref := referenceFramework(fw)
			for st := range next {
				res, err := ref.ExecuteOpts(st.sql, core.ExecOptions{Params: st.params})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %s %q %v: %w", st.class.name, st.sql, st.params, err)
				}
				if err == nil {
					rows := res.Rows
					if n := st.class.frames * st.class.fetchSize; n > 0 && len(rows) > n {
						rows = rows[:n]
					}
					o.refs[st.key()] = rows
				}
				mu.Unlock()
			}
		}()
	}
	for _, st := range stmts {
		next <- st
	}
	close(next)
	wg.Wait()
	return o, firstErr
}

// check compares a response against the reference: the row count, then
// every cell, after sorting both sides when the SQL leaves the order open.
func (o *oracle) check(st stmt, got [][]any) error {
	var want [][]any
	if st.class.expect != nil {
		want = st.class.expect(o.seed, st.params)
	} else {
		var ok bool
		if want, ok = o.refs[st.key()]; !ok {
			return fmt.Errorf("no reference for %s %v", st.class.name, st.params)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", st.class.name, len(got), len(want))
	}
	if !st.class.ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s row %d: %d columns, want %d", st.class.name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				return fmt.Errorf("%s row %d column %d: got %v, want %v", st.class.name, i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// canon maps a cell to the form it takes on both sides of the wire:
// numbers as float64, timestamps as their JSON text.
func canon(v any) any {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case time.Time:
		return x.Format(time.RFC3339Nano)
	}
	return v
}

func sameValue(a, b any) bool {
	a, b = canon(a), canon(b)
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok && bok {
		return withinULPs(fa, fb)
	}
	return a == b
}

func withinULPs(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.Signbit(a) != math.Signbit(b) {
		return false
	}
	ia, ib := int64(math.Float64bits(math.Abs(a))), int64(math.Float64bits(math.Abs(b)))
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return d <= maxULPs
}

func rowKey(row []any) string {
	var b strings.Builder
	for _, v := range row {
		switch x := canon(v).(type) {
		case float64:
			fmt.Fprintf(&b, "%.9g|", x)
		default:
			fmt.Fprintf(&b, "%v|", x)
		}
	}
	return b.String()
}

func sortedRows(rows [][]any) [][]any {
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, r := range rows {
		keys[i], idx[i] = rowKey(r), i
	}
	sort.Slice(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	out := make([][]any, len(rows))
	for i, k := range idx {
		out[i] = rows[k]
	}
	return out
}
