package fr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mdegst/internal/exact"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	m := n - 1 + rng.Intn(2*n)
	return graph.Gnm(n, m, rng.Int63())
}

func starInitial(t testing.TB, g *graph.Graph) *tree.Tree {
	t.Helper()
	t0, err := spanning.StarTree(g)
	if err != nil {
		t.Fatal(err)
	}
	return t0
}

func TestTwinNeverIncreasesDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		g := randomConnected(rng, 8+rng.Intn(30))
		t0 := starInitial(t, g)
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi} {
			got, stats, err := TwinTargetSnapshot(g.Compile(), t0, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(g); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			if stats.FinalDegree > stats.InitialDegree {
				t.Fatalf("iter %d %v: degree rose %d -> %d", i, mode, stats.InitialDegree, stats.FinalDegree)
			}
			if stats.Rounds < 1 {
				t.Fatalf("iter %d: rounds = %d", i, stats.Rounds)
			}
		}
	}
}

// TestTwinModesReachLocalOptimum checks each mode's terminal condition:
// Single and Hybrid stop at full local optimality (no usable edge across any
// maximum-degree node); Multi stops at the weaker per-owner condition (no
// usable edge between two fragments of the same owner — DESIGN.md dev. 4).
func TestTwinModesReachLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		g := randomConnected(rng, 10+rng.Intn(20))
		t0 := starInitial(t, g)
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Hybrid} {
			tr, _, err := TwinTargetSnapshot(g.Compile(), t0, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !isLocallyOptimalSingle(g, tr) {
				t.Errorf("iter %d: %v result is not locally optimal", i, mode)
			}
		}
		multi, _, err := TwinTargetSnapshot(g.Compile(), t0, mdst.Multi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !isLocallyOptimalMulti(g, multi) {
			t.Errorf("iter %d: multi result violates its terminal condition", i)
		}
	}
}

// isLocallyOptimalMulti checks the Multi-mode terminal condition: rooted at
// the minimum-identity maximum-degree node, no owner has a usable edge
// between two of its own T-S fragments.
func isLocallyOptimalMulti(g *graph.Graph, tr *tree.Tree) bool {
	k, maxNodes := tr.MaxDegree()
	if k <= 2 {
		return true
	}
	work := tr.Clone()
	work.Reroot(maxNodes[0])
	inS := make(map[graph.NodeID]bool)
	for _, v := range maxNodes {
		inS[v] = true
	}
	type fragInfo struct{ owner, root graph.NodeID }
	frag := make(map[graph.NodeID]fragInfo)
	var walk func(v graph.NodeID)
	walk = func(v graph.NodeID) {
		for _, c := range work.Children[v] {
			if !inS[c] {
				if inS[v] {
					frag[c] = fragInfo{owner: v, root: c}
				} else {
					frag[c] = frag[v]
				}
			}
			walk(c)
		}
	}
	walk(work.Root)
	for _, e := range g.Edges() {
		a, b := e.U, e.V
		if work.HasEdge(a, b) || inS[a] || inS[b] {
			continue
		}
		fa, fb := frag[a], frag[b]
		if fa.owner == fb.owner && fa.root != fb.root &&
			work.Degree(a) <= k-2 && work.Degree(b) <= k-2 {
			return false
		}
	}
	return true
}

// isLocallyOptimalSingle checks the Single-mode terminal condition directly:
// no maximum-degree node p has a usable edge between two components of T-p.
func isLocallyOptimalSingle(g *graph.Graph, tr *tree.Tree) bool {
	k, maxNodes := tr.MaxDegree()
	if k <= 2 {
		return true
	}
	for _, p := range maxNodes {
		work := tr.Clone()
		work.Reroot(p)
		frag := make(map[graph.NodeID]graph.NodeID)
		for _, c := range work.Children[p] {
			for _, x := range work.SubtreeNodes(c) {
				frag[x] = c
			}
		}
		for _, e := range g.Edges() {
			a, b := e.U, e.V
			if a == p || b == p || work.HasEdge(a, b) {
				continue
			}
			if frag[a] == frag[b] {
				continue
			}
			if work.Degree(a) <= k-2 && work.Degree(b) <= k-2 {
				return false
			}
		}
	}
	return true
}

func TestFurerRaghavachariQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	worstGap := 0
	for i := 0; i < 40; i++ {
		g := randomConnected(rng, 6+rng.Intn(8)) // exact-solvable sizes
		t0 := starInitial(t, g)
		got, stats, err := FurerRaghavachari(g, t0)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(g); err != nil {
			t.Fatal(err)
		}
		opt, _, err := exact.MinDegree(g)
		if err != nil {
			t.Fatal(err)
		}
		gap := stats.FinalDegree - opt
		if gap > worstGap {
			worstGap = gap
		}
		if gap < 0 {
			t.Fatalf("iter %d: better than optimal?! %d < %d", i, stats.FinalDegree, opt)
		}
	}
	// The classic guarantee is Δ*+1; the plain variant can rarely exceed it
	// on adversarial instances, but on these random graphs it should not.
	if worstGap > 1 {
		t.Errorf("worst gap = %d, want <= 1 on random graphs", worstGap)
	}
}

func TestStrictNeverWorseThanPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 30; i++ {
		g := randomConnected(rng, 8+rng.Intn(14))
		t0 := starInitial(t, g)
		plain, ps, err := FurerRaghavachari(g, t0)
		if err != nil {
			t.Fatal(err)
		}
		strict, ss, err := Strict(g, t0)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.Validate(g); err != nil {
			t.Fatal(err)
		}
		if err := strict.Validate(g); err != nil {
			t.Fatal(err)
		}
		if ss.FinalDegree > ps.FinalDegree {
			t.Errorf("iter %d: strict %d worse than plain %d", i, ss.FinalDegree, ps.FinalDegree)
		}
	}
}

func TestStrictWithinOneOfOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		g := randomConnected(rng, 6+rng.Intn(8))
		t0 := starInitial(t, g)
		_, ss, err := Strict(g, t0)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := exact.MinDegree(g)
		if err != nil {
			t.Fatal(err)
		}
		if ss.FinalDegree > opt+1 {
			t.Errorf("iter %d: strict degree %d > Δ*+1 = %d", i, ss.FinalDegree, opt+1)
		}
	}
}

func TestTwinOnChain(t *testing.T) {
	g := graph.Ring(9)
	t0, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := TwinTargetSnapshot(g.Compile(), t0, mdst.Single, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 || stats.Swaps != 0 {
		t.Errorf("rounds=%d swaps=%d", stats.Rounds, stats.Swaps)
	}
	if !got.SameEdges(t0) {
		t.Error("chain tree was modified")
	}
}

func TestTwinRejectsBadTree(t *testing.T) {
	g := graph.Ring(5)
	bad := tree.New(0)
	if _, _, err := TwinTargetSnapshot(g.Compile(), bad, mdst.Single, 0); err == nil {
		t.Error("non-spanning tree accepted")
	}
}

// Property: for random graphs and random initial spanning trees, the twin
// keeps a valid spanning tree, never raises the degree, and its Multi-mode
// round count is at most the Single-mode one (concurrent exchanges).
func TestQuickTwinInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 6+rng.Intn(24))
		t0, err := spanning.RandomST(g, seed)
		if err != nil {
			return false
		}
		single, s1, err := TwinTargetSnapshot(g.Compile(), t0, mdst.Single, 0)
		if err != nil || single.Validate(g) != nil {
			return false
		}
		multi, s2, err := TwinTargetSnapshot(g.Compile(), t0, mdst.Multi, 0)
		if err != nil || multi.Validate(g) != nil {
			return false
		}
		if s1.FinalDegree > s1.InitialDegree || s2.FinalDegree > s2.InitialDegree {
			return false
		}
		// Multi applies at least as many exchanges per round.
		return s2.Rounds <= s1.Rounds+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func ExampleTwinTargetSnapshot() {
	g := graph.Wheel(8)
	t0, _ := spanning.StarTree(g)
	improved, stats, _ := TwinTargetSnapshot(g.Compile(), t0, mdst.Single, 0)
	deg, _ := improved.MaxDegree()
	fmt.Println("initial:", stats.InitialDegree, "final:", deg)
	// Output: initial: 7 final: 2
}
