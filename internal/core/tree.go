package core

import "sync"

// Tree is the connectivity tree rooted at the base station. parent[i] is a
// sensor ID, BaseParent, or NoParent. The tree is maintained by the schemes
// during connectivity establishment (§4.1, §5.2), parent changes (§4.2) and
// movable-sensor identification (§5.3).
type Tree struct {
	parent   []int
	children [][]int

	// chainA/chainB back TreeDist's two root chains; the registry's
	// covered-query path calls TreeDist once per candidate header per
	// period, so per-call chain allocation dominates a run's garbage.
	chainA, chainB []int
}

// treePool recycles trees (their parent/children arrays and chain
// scratch) across runs; one tree is built per run, and sweeps run
// thousands.
var treePool sync.Pool

// NewTree creates a tree of n detached sensors, reusing a pooled tree's
// storage when available (see Release).
func NewTree(n int) *Tree {
	t, _ := treePool.Get().(*Tree)
	if t == nil {
		t = &Tree{}
	}
	if cap(t.parent) < n {
		t.parent = make([]int, n)
		t.children = make([][]int, n)
	} else {
		t.parent = t.parent[:n]
		t.children = t.children[:n]
	}
	for i := range t.parent {
		t.parent[i] = NoParent
		t.children[i] = t.children[i][:0]
	}
	return t
}

// Release returns the tree's storage to the shared pool for reuse by a
// future NewTree. The tree must not be used after Release.
func (t *Tree) Release() {
	treePool.Put(t)
}

// Len returns the number of sensors.
func (t *Tree) Len() int { return len(t.parent) }

// Parent returns sensor id's parent (a sensor ID, BaseParent, or NoParent).
func (t *Tree) Parent(id int) int { return t.parent[id] }

// Children returns sensor id's children. The returned slice is owned by the
// tree and must not be modified.
func (t *Tree) Children(id int) []int { return t.children[id] }

// InTree reports whether sensor id has a path of parents ending at the
// base station.
func (t *Tree) InTree(id int) bool {
	for hops := 0; hops <= len(t.parent); hops++ {
		p := t.parent[id]
		if p == BaseParent {
			return true
		}
		if p == NoParent {
			return false
		}
		id = p
	}
	return false // cycle: not rooted
}

// SetParent makes child a child of parent (BaseParent for the base
// station). It refuses, returning false, if the change would create a
// cycle, i.e. if child is an ancestor of parent.
func (t *Tree) SetParent(child, parent int) bool {
	if parent == child {
		return false
	}
	if parent >= 0 && t.IsAncestor(child, parent) {
		return false
	}
	t.Detach(child)
	t.parent[child] = parent
	if parent >= 0 {
		t.children[parent] = append(t.children[parent], child)
	}
	return true
}

// Detach removes child from its parent. Its own subtree stays attached to
// it.
func (t *Tree) Detach(child int) {
	p := t.parent[child]
	t.parent[child] = NoParent
	if p < 0 {
		return
	}
	kids := t.children[p]
	for i, c := range kids {
		if c == child {
			t.children[p] = append(kids[:i], kids[i+1:]...)
			return
		}
	}
}

// IsAncestor reports whether a is an ancestor of id (or a == id).
func (t *Tree) IsAncestor(a, id int) bool {
	for hops := 0; hops <= len(t.parent); hops++ {
		if id == a {
			return true
		}
		if id < 0 {
			return false
		}
		id = t.parent[id]
	}
	return false
}

// AncestorsAppend appends the chain of sensor ancestors of id (nearest
// first, excluding the base-station sentinel) to out and returns it.
// FLOOR keeps this list in each sensor's memory (§5.3).
func (t *Tree) AncestorsAppend(out []int, id int) []int {
	cur := t.parent[id]
	for hops := 0; hops <= len(t.parent) && cur >= 0; hops++ {
		out = append(out, cur)
		cur = t.parent[cur]
	}
	return out
}

// Depth returns the number of hops from id to the base station, or -1 if
// id is not in the tree.
func (t *Tree) Depth(id int) int {
	d := 0
	cur := id
	for hops := 0; hops <= len(t.parent); hops++ {
		p := t.parent[cur]
		if p == BaseParent {
			return d + 1
		}
		if p == NoParent {
			return -1
		}
		cur = p
		d++
	}
	return -1
}

// Subtree returns id and every descendant of id, in BFS order.
func (t *Tree) Subtree(id int) []int {
	return t.SubtreeAppend(nil, id)
}

// SubtreeAppend appends id and every descendant of id (in BFS order,
// starting from out's existing length) to out and returns it.
func (t *Tree) SubtreeAppend(out []int, id int) []int {
	start := len(out)
	out = append(out, id)
	for i := start; i < len(out); i++ {
		out = append(out, t.children[out[i]]...)
	}
	return out
}

// TreeDist returns the number of tree edges on the path between a and b
// (treating the base station as the common root), or -1 if they are in
// different fragments. The chain scratch makes repeated calls
// allocation-free; like all tree mutation, it is not safe for concurrent
// use on one tree.
func (t *Tree) TreeDist(a, b int) int {
	da, okA := t.depthChain(t.chainA[:0], a)
	t.chainA = da
	db, okB := t.depthChain(t.chainB[:0], b)
	t.chainB = db
	if !okA || !okB {
		return -1
	}
	// Chains end at BaseParent; walk back from the root to find the
	// divergence point.
	i, j := len(da)-1, len(db)-1
	for i >= 0 && j >= 0 && da[i] == db[j] {
		i--
		j--
	}
	return (i + 1) + (j + 1)
}

// depthChain appends the chain [id, parent, ..., last-before-base] to buf,
// reporting false if id is not rooted at the base station.
func (t *Tree) depthChain(buf []int, id int) ([]int, bool) {
	buf = append(buf, id)
	cur := id
	for hops := 0; hops <= len(t.parent); hops++ {
		p := t.parent[cur]
		if p == BaseParent {
			return buf, true
		}
		if p == NoParent {
			return buf, false
		}
		buf = append(buf, p)
		cur = p
	}
	return buf, false
}
