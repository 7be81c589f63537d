// Package rel implements the relational algebra at the core of the framework
// (§4 of the paper). A query is represented as a tree of relational operators
// (Node). Every node carries a trait set describing its physical properties
// (calling convention, collation); logical and physical operators share the
// same representation and differ only in traits, exactly as in Calcite.
//
// Node digests — canonical strings over the operator, its attributes and its
// input digests — drive duplicate detection in the cost-based planner (§6).
package rel

import (
	"fmt"
	"strings"

	"calcite/internal/trait"
	"calcite/internal/types"
)

// Node is a relational expression.
type Node interface {
	// Op returns the operator name for display and digesting, e.g.
	// "LogicalFilter" or "EnumerableHashJoin".
	Op() string
	// Inputs returns the child expressions.
	Inputs() []Node
	// RowType returns the type of the rows produced (a ROW type).
	RowType() *types.Type
	// Traits returns the node's physical traits.
	Traits() trait.Set
	// Attrs renders the node's own attributes (no inputs) for digests and
	// EXPLAIN, e.g. "condition=[>($1, 25)]".
	Attrs() string
	// WithNewInputs returns a copy of the node with the inputs replaced.
	// len(inputs) must match len(Inputs()).
	WithNewInputs(inputs []Node) Node
}

// Wrapped is implemented by physical operators that wrap a logical
// prototype; Unwrap returns an equivalent logical node with the same inputs.
// The metadata layer uses it to derive logical properties (row counts,
// collations) of physical operators it does not know about.
type Wrapped interface {
	Unwrap() Node
}

// Synthetic marks physical operators materialized after optimization —
// exchanges, partition sources, partial-aggregation stages inserted by the
// parallel rewrite. They have no counterpart in the optimized plan, so the
// trace layer skips them when computing stable operator path ids: a
// synthetic node passes its position in the optimized tree through to its
// (single) input unchanged.
type Synthetic interface {
	SyntheticNode()
}

// Placeholder marks nodes that stand for a planner-owned equivalence set
// rather than one expression (the Volcano planner's subset references).
// Their digests name the set, so they — and every digest composed from
// them — change when the planner merges sets; see Memo.ForgetPlaceholders.
type Placeholder interface {
	PlaceholderNode()
}

// Digest returns the canonical digest of the subtree rooted at n. Two nodes
// with equal digests produce the same multiset of rows.
func Digest(n Node) string {
	return NewMemo().Digest(n)
}

// Memo memoizes node digests for one planning session. Nodes and their rex
// expressions are immutable after construction, so a digest is composed
// once from the node's operator, convention and attributes plus its inputs'
// memoized digests, and no subtree is rendered twice. Digests are keyed by
// node identity; a Memo is owned by one metadata session (meta.Query) and
// is not safe for concurrent use.
type Memo struct {
	entries map[Node]memoEntry
}

type memoEntry struct {
	digest string
	// placeholder records that the digest depends on a Placeholder.
	placeholder bool
}

// NewMemo returns an empty digest memo.
func NewMemo() *Memo {
	return &Memo{entries: map[Node]memoEntry{}}
}

// Digest returns n's digest, computing and memoizing it (and those of its
// inputs) on first use.
func (m *Memo) Digest(n Node) string { return m.entry(n).digest }

// Range calls fn for every memoized node and digest, in no particular
// order.
func (m *Memo) Range(fn func(n Node, digest string)) {
	for n, e := range m.entries {
		fn(n, e.digest)
	}
}

// ForgetPlaceholders drops every digest that depends on a Placeholder node:
// the planner calls it when it renames the sets placeholders refer to.
func (m *Memo) ForgetPlaceholders() {
	for n, e := range m.entries {
		if e.placeholder {
			delete(m.entries, n)
		}
	}
}

func (m *Memo) entry(n Node) memoEntry {
	if e, ok := m.entries[n]; ok {
		return e
	}
	_, placeholder := n.(Placeholder)
	op := n.Op()
	conv := n.Traits().Convention
	physical := conv != nil && !trait.SameConvention(conv, trait.Logical)
	var convName string
	if physical {
		convName = conv.ConventionName()
	}
	attrs := n.Attrs()
	inputs := n.Inputs()
	var buf [4]memoEntry
	children := buf[:0]
	size := len(op) + len(convName) + len(attrs) + 5 + len(inputs)
	for _, in := range inputs {
		c := m.entry(in)
		children = append(children, c)
		size += len(c.digest)
		placeholder = placeholder || c.placeholder
	}

	var b strings.Builder
	b.Grow(size)
	b.WriteString(op)
	if physical {
		b.WriteByte('.')
		b.WriteString(convName)
	}
	if attrs != "" {
		b.WriteByte('{')
		b.WriteString(attrs)
		b.WriteByte('}')
	}
	if len(children) > 0 {
		b.WriteByte('(')
		for i, c := range children {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c.digest)
		}
		b.WriteByte(')')
	}
	e := memoEntry{digest: b.String(), placeholder: placeholder}
	m.entries[n] = e
	return e
}

// Explain renders the subtree as an indented multi-line plan, the format
// used by EXPLAIN and by the paper-figure reproductions.
func Explain(n Node) string {
	return ExplainAnnotated(n, nil)
}

// ExplainAnnotated renders the subtree like Explain, appending the result of
// annotate (when non-nil and non-empty) to each node's line. The connection
// layer uses it to surface the optimizer's estimated row counts and costs in
// EXPLAIN output.
func ExplainAnnotated(n Node, annotate func(Node) string) string {
	var b strings.Builder
	explain(n, 0, &b, annotate)
	return b.String()
}

func explain(n Node, depth int, b *strings.Builder, annotate func(Node) string) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op())
	var parts []string
	if a := n.Attrs(); a != "" {
		parts = append(parts, a)
	}
	conv := n.Traits().Convention
	if conv != nil && !trait.SameConvention(conv, trait.Logical) {
		parts = append(parts, "convention="+conv.ConventionName())
	}
	if len(parts) > 0 {
		b.WriteString("(" + strings.Join(parts, ", ") + ")")
	}
	if annotate != nil {
		if extra := annotate(n); extra != "" {
			b.WriteString(": ")
			b.WriteString(extra)
		}
	}
	b.WriteByte('\n')
	for _, in := range n.Inputs() {
		explain(in, depth+1, b, annotate)
	}
}

// Walk visits n and all descendants pre-order; visit returns false to prune.
func Walk(n Node, visit func(Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, in := range n.Inputs() {
		Walk(in, visit)
	}
}

// Count returns the number of nodes in the subtree.
func Count(n Node) int {
	c := 0
	Walk(n, func(Node) bool { c++; return true })
	return c
}

// TransformUp rewrites the tree bottom-up: fn is applied to each node after
// its children have been rewritten.
func TransformUp(n Node, fn func(Node) Node) Node {
	inputs := n.Inputs()
	if len(inputs) > 0 {
		newInputs := make([]Node, len(inputs))
		changed := false
		for i, in := range inputs {
			newInputs[i] = TransformUp(in, fn)
			if newInputs[i] != in {
				changed = true
			}
		}
		if changed {
			n = n.WithNewInputs(newInputs)
		}
	}
	return fn(n)
}

// FieldCount returns the number of output fields of n.
func FieldCount(n Node) int { return len(n.RowType().Fields) }

// base carries the pieces every operator shares.
type base struct {
	op      string
	inputs  []Node
	rowType *types.Type
	traits  trait.Set
}

func newBase(op string, traits trait.Set, rowType *types.Type, inputs ...Node) base {
	return base{op: op, inputs: inputs, rowType: rowType, traits: traits}
}

func (b *base) Op() string           { return b.op }
func (b *base) Inputs() []Node       { return b.inputs }
func (b *base) RowType() *types.Type { return b.rowType }
func (b *base) Traits() trait.Set    { return b.traits }

func checkInputs(op string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("rel: %s requires %d inputs, got %d", op, want, got))
	}
}
