// Package exact computes ground truth for the quality experiments: the
// optimal spanning tree degree Δ* by branch and bound (small graphs), and
// cheap lower bounds on Δ* for graphs too large to solve exactly. The
// paper's guarantee under scrutiny is "degree at most Δ*+1".
//
// DegreeLowerBound is one low-link DFS, O(n+m) at any size. MinDegree
// starts its cap loop at the larger of that bound and the Fürer–
// Raghavachari witness bound over witness sets of at most three nodes, so
// the branch and bound only runs at caps the bounds cannot rule out; the
// search itself works on dense int32 endpoints and reuses one set of
// arrays for every cap and every node.
package exact

import (
	"fmt"
	"sort"

	"mdegst/internal/graph"
	"mdegst/internal/tree"
)

// MaxExactNodes bounds the graph size accepted by MinDegree; beyond it the
// search space is impractical and callers should use DegreeLowerBound.
const MaxExactNodes = 24

// MinDegree returns Δ*, the minimum over all spanning trees of the maximum
// degree, together with one optimal tree (rooted at the smallest node).
// The cap loop starts at the larger of DegreeLowerBound and the witness
// bound, so it only skips caps that are provably infeasible.
func MinDegree(g *graph.Graph) (int, *tree.Tree, error) {
	if !g.IsConnected() {
		return 0, nil, fmt.Errorf("exact: graph not connected")
	}
	if g.N() > MaxExactNodes {
		return 0, nil, fmt.Errorf("exact: %d nodes exceeds limit %d", g.N(), MaxExactNodes)
	}
	if g.N() == 1 {
		return 0, tree.New(g.Nodes()[0]), nil
	}
	c := g.Compile()
	s := newCapSearch(c)
	for d := max(degreeLowerBound(c), witnessBound(c)); d < g.N(); d++ {
		if edges := s.run(d); edges != nil {
			t, err := orient(g, edges)
			if err != nil {
				return 0, nil, err
			}
			return d, t, nil
		}
	}
	return 0, nil, fmt.Errorf("exact: no spanning tree found (graph disconnected?)")
}

// HasSpanningTreeWithin reports whether g has a spanning tree of maximum
// degree at most d.
func HasSpanningTreeWithin(g *graph.Graph, d int) (bool, error) {
	if !g.IsConnected() {
		return false, fmt.Errorf("exact: graph not connected")
	}
	if g.N() > MaxExactNodes {
		return false, fmt.Errorf("exact: %d nodes exceeds limit %d", g.N(), MaxExactNodes)
	}
	if g.N() == 1 {
		return d >= 0, nil
	}
	c := g.Compile()
	if d < max(degreeLowerBound(c), witnessBound(c)) {
		return false, nil
	}
	return newCapSearch(c).run(d) != nil, nil
}

// DegreeLowerBound returns a lower bound on Δ*: removing any vertex v splits
// a spanning tree into deg_T(v) subtrees, each containing a component of
// G - v, so Δ* >= components(G-v) for every v; and any tree on n >= 3 nodes
// has a vertex of degree at least 2. It runs in O(n+m), so it is cheap at
// any size.
func DegreeLowerBound(g *graph.Graph) int {
	return degreeLowerBound(g.Compile())
}

// degreeLowerBound is DegreeLowerBound over a snapshot: one iterative
// low-link DFS over the CSR. With disc the discovery time and low[w] the
// smallest disc one edge away from w's DFS subtree (the edge to w's parent
// included, which the >= test below tolerates), removing v leaves the
// c(G)-1 other components, one component per DFS child w with
// low[w] >= disc[v], and one more holding v's DFS parent unless v is a root.
func degreeLowerBound(c *graph.CSR) int {
	n := c.N()
	disc := make([]int32, n) // 1-based discovery time, 0 = unvisited
	low := make([]int32, n)
	split := make([]int32, n) // components of v's own component left by removing v
	next := make([]int32, n)  // next adjacency position to scan
	stack := make([]int32, 0, n)
	comps, t := 0, int32(0)
	for r := int32(0); int(r) < n; r++ {
		if disc[r] != 0 {
			continue
		}
		comps++
		t++
		disc[r], low[r] = t, t
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if nb := c.Neighbors(v); int(next[v]) < len(nb) {
				w := nb[next[v]]
				next[v]++
				if disc[w] == 0 {
					t++
					disc[w], low[w] = t, t
					split[w] = 1 // the part holding its DFS parent
					stack = append(stack, w)
				} else if disc[w] < low[v] {
					low[v] = disc[w]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				low[p] = min(low[p], low[v])
				if low[v] >= disc[p] {
					split[p]++
				}
			}
		}
	}
	lb := 1
	if n >= 3 {
		lb = 2
	}
	for _, k := range split {
		lb = max(lb, comps-1+int(k))
	}
	return lb
}

// witnessBound returns the Fürer–Raghavachari witness bound over every
// witness set S with |S| <= 3: a spanning tree joins the c(G-S) components
// of G-S and the nodes of S with at least c(G-S)+|S|-1 edges that touch S,
// so some node of S has tree degree at least ⌈(c(G-S)+|S|-1)/|S|⌉. Each S
// costs one O(n+m) sweep; at MaxExactNodes that is 2,324 sweeps.
func witnessBound(c *graph.CSR) int {
	n := c.N()
	removed := make([]bool, n)
	seen := make([]bool, n)
	stack := make([]int32, 0, n)
	// bound is ⌈(c(G-S)+|S|-1)/|S|⌉ for the S currently marked removed.
	bound := func(size int) int {
		copy(seen, removed)
		comps := 0
		for s := int32(0); int(s) < n; s++ {
			if seen[s] {
				continue
			}
			comps++
			seen[s] = true
			stack = append(stack[:0], s)
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range c.Neighbors(u) {
					if !seen[w] {
						seen[w] = true
						stack = append(stack, w)
					}
				}
			}
		}
		return (comps + size - 1 + size - 1) / size
	}
	best := 0
	for a := 0; a < n; a++ {
		removed[a] = true
		best = max(best, bound(1))
		for b := a + 1; b < n; b++ {
			removed[b] = true
			best = max(best, bound(2))
			for d := b + 1; d < n; d++ {
				removed[d] = true
				best = max(best, bound(3))
				removed[d] = false
			}
			removed[b] = false
		}
		removed[a] = false
	}
	return best
}

// capSearch decides, for one cap at a time, whether a spanning tree with
// every degree at most the cap exists, by include/exclude branch and bound
// over the edge list with union-find components, degree budgets and
// connectivity pruning. The edge order and every array are built once per
// graph; run resets them, so a search allocates nothing per node.
type capSearch struct {
	n      int
	ids    []graph.NodeID // dense -> NodeID
	eu, ev []int32        // dense endpoints of edge i, in search order
	budget []int
	uf     *unionFind
	reach  *unionFind // connectable's scratch copy of uf
	alive  []bool
	chosen []int32 // edges included on the current branch
	nodes  int     // search calls in the last run
}

func newCapSearch(c *graph.CSR) *capSearch {
	n := c.N()
	edges := c.DenseEdges(nil)
	// Order edges to find feasible trees early: prefer edges whose
	// endpoints have few alternatives (low graph degree).
	key := func(e [2]int32) int { return c.Degree(e[0]) + c.Degree(e[1]) }
	sort.SliceStable(edges, func(i, j int) bool { return key(edges[i]) < key(edges[j]) })
	s := &capSearch{
		n:      n,
		ids:    c.Index().IDs(),
		eu:     make([]int32, len(edges)),
		ev:     make([]int32, len(edges)),
		budget: make([]int, n),
		uf:     newUnionFind(n),
		reach:  newUnionFind(n),
		alive:  make([]bool, len(edges)),
		chosen: make([]int32, 0, n),
	}
	for i, e := range edges {
		s.eu[i], s.ev[i] = e[0], e[1]
	}
	return s
}

// run returns the edges of a spanning tree with every degree at most cap,
// or nil when there is none.
func (s *capSearch) run(cap int) []graph.Edge {
	if cap < 1 {
		return nil
	}
	for i := range s.budget {
		s.budget[i] = cap
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	s.uf.reset()
	s.chosen = s.chosen[:0]
	s.nodes = 0
	if !s.search(0, s.n-1) {
		return nil
	}
	out := make([]graph.Edge, len(s.chosen))
	for k, i := range s.chosen {
		out[k] = graph.Edge{U: s.ids[s.eu[i]], V: s.ids[s.ev[i]]}
	}
	return out
}

// search decides edge i; need is the number of edges still required.
func (s *capSearch) search(i, need int) bool {
	s.nodes++
	if need == 0 {
		return true
	}
	if i >= len(s.eu) || len(s.eu)-i < need {
		return false
	}
	if !s.connectable(i) {
		return false
	}
	u, v := s.eu[i], s.ev[i]

	// Branch 1: include edge i when budgets allow and it joins two components.
	if s.budget[u] > 0 && s.budget[v] > 0 && s.uf.find(u) != s.uf.find(v) {
		mark := s.uf.mark()
		s.uf.union(u, v)
		s.budget[u]--
		s.budget[v]--
		s.chosen = append(s.chosen, int32(i))
		if s.search(i+1, need-1) {
			return true
		}
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.budget[u]++
		s.budget[v]++
		s.uf.undo(mark)
	}

	// Branch 2: exclude edge i.
	s.alive[i] = false
	ok := s.search(i+1, need)
	s.alive[i] = true
	return ok
}

// connectable prunes branches where the remaining usable edges cannot
// connect the current components. It copies uf into the reach scratch (a
// plain copy is exact because uf never compresses paths) and merges along
// the usable edges until one component is left.
func (s *capSearch) connectable(i int) bool {
	r := s.reach
	copy(r.parent, s.uf.parent)
	copy(r.size, s.uf.size)
	r.log = r.log[:0]
	comps := s.n - len(s.uf.log)
	for j := i; comps > 1 && j < len(s.eu); j++ {
		u, v := s.eu[j], s.ev[j]
		if s.alive[j] && s.budget[u] > 0 && s.budget[v] > 0 && r.union(u, v) {
			comps--
		}
	}
	return comps == 1
}

// unionFind with union-by-size and an undo log (no path compression so
// undos are exact).
type unionFind struct {
	parent []int32
	size   []int32
	log    []int32 // roots attached, for undo
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n), log: make([]int32, 0, n)}
	uf.reset()
	return uf
}

func (uf *unionFind) reset() {
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	uf.log = uf.log[:0]
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b and reports whether they were apart.
func (uf *unionFind) union(a, b int32) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.log = append(uf.log, rb)
	return true
}

func (uf *unionFind) mark() int { return len(uf.log) }

func (uf *unionFind) undo(mark int) {
	for len(uf.log) > mark {
		rb := uf.log[len(uf.log)-1]
		uf.log = uf.log[:len(uf.log)-1]
		ra := uf.parent[rb]
		uf.size[ra] -= uf.size[rb]
		uf.parent[rb] = rb
	}
}

func orient(g *graph.Graph, edges []graph.Edge) (*tree.Tree, error) {
	st := graph.New()
	for _, v := range g.Nodes() {
		st.AddNode(v)
	}
	for _, e := range edges {
		st.MustAddEdge(e.U, e.V)
	}
	root := g.Nodes()[0]
	parent := st.BFSParents(root)
	if len(parent) != g.N() {
		return nil, fmt.Errorf("exact: selected edges do not span")
	}
	return tree.FromParentMap(root, parent)
}
