// Memo-soundness test: planning memoizes each node's digest (rel.Memo, one
// per metadata session) and each node's feedback key (per metadata session
// and per EstimatePlan walk). Across the root corpora — modes, star, window,
// stream — every memoized digest must equal the uncached rel.Digest, every
// expression the Volcano planner holds must have one, and the memoized key
// of every physical operator must equal the uncached key of it and of its
// logical prototype.
package calcite_test

import (
	"strconv"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/feedback"
	"calcite/internal/rel"
	"calcite/internal/rules"
)

type memoCorpusStmt struct {
	sql    string
	params []any
}

func TestPlanningMemoSoundness(t *testing.T) {
	type corpus struct {
		name  string
		conn  *calcite.Connection
		stmts []memoCorpusStmt
	}
	var modes []memoCorpusStmt
	for _, q := range diffQueries {
		modes = append(modes, memoCorpusStmt{q.sql, q.params})
	}
	var star []memoCorpusStmt
	for _, sql := range differentialQueries {
		star = append(star, memoCorpusStmt{sql: sql})
	}
	var window []memoCorpusStmt
	for _, sql := range windowQueries {
		window = append(window, memoCorpusStmt{sql: sql})
	}
	var stream []memoCorpusStmt
	for _, tc := range streamDiffCases {
		for _, keyed := range []bool{false, true} {
			stream = append(stream, memoCorpusStmt{sql: tc.sql[keyed]})
		}
	}
	analyzed := starConn(2000)
	analyzeStar(t, analyzed)
	streamConn, _ := streamFixture(t, genStreamEvents(300, 3), 0)
	// Join commutation and the logical rewrites inside the cost-based phase
	// rediscover expressions already registered in other sets, so Volcano
	// merges sets and must forget every subset-dependent digest. Three-way
	// joins merge dozens of sets; exhaustive four-way exploration only
	// takes longer.
	exploring := starConn(2000)
	exploring.Framework.PhysicalRules = append(append(exploring.Framework.PhysicalRules,
		rules.JoinReorderRules()...), rules.DefaultLogicalRules()...)
	var threeWay []memoCorpusStmt
	for _, s := range star {
		if strings.Count(s.sql, "JOIN") == 3 {
			threeWay = append(threeWay, s)
		}
	}
	corpora := []corpus{
		{"modes", diffConn(), modes},
		{"star", starConn(2000), star},
		{"star/exploring", exploring, threeWay},
		{"star/analyzed", analyzed, star},
		{"window", windowConn(260), window},
		{"stream", streamConn, stream},
	}

	merges := 0
	for _, c := range corpora {
		fw := c.conn.Framework
		// Executing first fills the feedback store, so the planning below
		// consults memoized feedback keys on every row-count miss.
		for _, s := range c.stmts {
			if _, err := c.conn.Query(s.sql, s.params...); err != nil {
				t.Fatalf("%s: execute: %v\n%s", c.name, err, s.sql)
			}
		}
		for i, s := range c.stmts {
			label := c.name + " #" + strconv.Itoa(i)
			logical, err := fw.ParseAndConvert(s.sql)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			physical, err := fw.Optimize(logical)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			vp := fw.LastPlanner
			merges += vp.Merges
			memo := vp.Meta.Memo()
			memoized := map[rel.Node]bool{}
			stale := ""
			memo.Range(func(n rel.Node, digest string) {
				memoized[n] = true
				if stale == "" && digest != rel.Digest(n) {
					stale = "memoized " + digest + "\n  uncached " + rel.Digest(n)
				}
			})
			if stale != "" {
				t.Errorf("%s: stale digest\n  %s", label, stale)
			}
			for _, n := range vp.Rels() {
				if !memoized[n] {
					t.Errorf("%s: registered %s has no memoized digest", label, n.Op())
					break
				}
			}

			est := feedback.EstimatePlan("", physical, fw.NewMetaQuery().RowCount)
			var walk func(n rel.Node, path string)
			walk = func(n rel.Node, path string) {
				key := est.ByPath[path].Key
				if want := feedback.NodeKey(n); key != want {
					t.Errorf("%s: %s at %s: memoized key %s, uncached %s", label, n.Op(), path, key, want)
				}
				if w, ok := n.(rel.Wrapped); ok {
					if proto := feedback.NodeKey(w.Unwrap()); key != proto {
						t.Errorf("%s: %s at %s: key %s, logical prototype's %s", label, n.Op(), path, key, proto)
					}
				}
				for i, in := range n.Inputs() {
					walk(in, path+"."+strconv.Itoa(i))
				}
			}
			walk(physical, "0")
		}
	}
	if merges == 0 {
		t.Fatal("no statement merged Volcano sets: the corpora no longer cover memo invalidation")
	}
	t.Logf("Volcano set merges across the corpora: %d", merges)
}
