package graph

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// small fixture: the 6-vertex example graph of the paper's Figure 3.
// In-degrees: v0:1 v1:2 v2:2 v3:2 v4:4 v5:3 (total 14 edges).
func fig3Graph(t *testing.T) *Graph {
	t.Helper()
	edges := []Edge{
		{Src: 1, Dst: 0}, // v0 in-degree 1
		{Src: 0, Dst: 1}, {Src: 2, Dst: 1},
		{Src: 1, Dst: 2}, {Src: 3, Dst: 2},
		{Src: 4, Dst: 3}, {Src: 5, Dst: 3},
		{Src: 0, Dst: 4}, {Src: 1, Dst: 4}, {Src: 3, Dst: 4}, {Src: 5, Dst: 4},
		{Src: 0, Dst: 5}, {Src: 2, Dst: 5}, {Src: 4, Dst: 5},
	}
	g, err := FromEdges(6, edges, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	g := fig3Graph(t)
	if g.NumVertices() != 6 {
		t.Fatalf("vertices = %d, want 6", g.NumVertices())
	}
	if g.NumEdges() != 14 {
		t.Fatalf("edges = %d, want 14", g.NumEdges())
	}
	wantIn := []int64{1, 2, 2, 2, 4, 3}
	for v, want := range wantIn {
		if got := g.InDegree(VertexID(v)); got != want {
			t.Errorf("InDegree(%d) = %d, want %d", v, got, want)
		}
	}
	var sumOut int64
	for v := 0; v < 6; v++ {
		sumOut += g.OutDegree(VertexID(v))
	}
	if sumOut != 14 {
		t.Errorf("sum of out-degrees = %d, want 14", sumOut)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	_, err := FromEdges(2, []Edge{{Src: 0, Dst: 5}}, false)
	if err == nil {
		t.Fatal("expected error for out-of-range destination")
	}
	_, err = FromEdges(-1, nil, false)
	if err == nil {
		t.Fatal("expected error for negative n")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.CountZeroInDegree() != 0 {
		t.Fatal("zero-in-degree count of empty graph should be 0")
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := FromEdges(5, []Edge{{Src: 0, Dst: 1}}, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if got := g.CountZeroInDegree(); got != 4 {
		t.Errorf("zero in-degree = %d, want 4", got)
	}
	if got := g.CountZeroOutDegree(); got != 4 {
		t.Errorf("zero out-degree = %d, want 4", got)
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := fig3Graph(t)
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.OutNeighbors(VertexID(v))
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] > nbrs[i] {
				t.Fatalf("out-neighbours of %d not sorted: %v", v, nbrs)
			}
		}
		in := g.InNeighbors(VertexID(v))
		for i := 1; i < len(in); i++ {
			if in[i-1] > in[i] {
				t.Fatalf("in-neighbours of %d not sorted: %v", v, in)
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := fig3Graph(t)
	if !g.HasEdge(0, 4) {
		t.Error("expected edge (0,4)")
	}
	if g.HasEdge(4, 0) {
		t.Error("unexpected edge (4,0)")
	}
}

func TestTranspose(t *testing.T) {
	g := fig3Graph(t)
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edges = %d, want %d", tr.NumEdges(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(VertexID(v)) != tr.OutDegree(VertexID(v)) {
			t.Errorf("vertex %d: in-degree %d != transpose out-degree %d",
				v, g.InDegree(VertexID(v)), tr.OutDegree(VertexID(v)))
		}
	}
	// transposing twice restores the original structure
	if !Equal(g, tr.Transpose()) {
		t.Error("double transpose differs from original")
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := fig3Graph(t)
	perm := make([]VertexID, g.NumVertices())
	for i := range perm {
		perm[i] = VertexID(i)
	}
	h, err := g.Relabel(perm)
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	if !Equal(g, h) {
		t.Error("identity relabel changed the graph")
	}
}

func TestRelabelIsomorphism(t *testing.T) {
	g := fig3Graph(t)
	perm := []VertexID{3, 0, 5, 1, 2, 4}
	h, err := g.Relabel(perm)
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	if !IsIsomorphicUnder(g, h, perm) {
		t.Error("relabelled graph is not isomorphic under perm")
	}
	// degree multiset must be preserved
	gh := g.DegreeHistogramIn()
	hh := h.DegreeHistogramIn()
	if len(gh) != len(hh) {
		t.Fatalf("degree histogram lengths differ: %d vs %d", len(gh), len(hh))
	}
	for d := range gh {
		if gh[d] != hh[d] {
			t.Errorf("count of in-degree %d: %d vs %d", d, gh[d], hh[d])
		}
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := fig3Graph(t)
	if _, err := g.Relabel([]VertexID{0, 0, 1, 2, 3, 4}); err == nil {
		t.Error("expected error for duplicate mapping")
	}
	if _, err := g.Relabel([]VertexID{0, 1, 2}); err == nil {
		t.Error("expected error for short permutation")
	}
	if _, err := g.Relabel([]VertexID{0, 1, 2, 3, 4, 99}); err == nil {
		t.Error("expected error for out-of-range mapping")
	}
}

func TestCharacterize(t *testing.T) {
	g := fig3Graph(t)
	s := g.Characterize()
	if s.Vertices != 6 || s.Edges != 14 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxInDegree != 4 {
		t.Errorf("MaxInDegree = %d, want 4", s.MaxInDegree)
	}
	if s.ZeroInDegree != 0 {
		t.Errorf("ZeroInDegree = %d, want 0", s.ZeroInDegree)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := fig3Graph(t)
	edges := g.Edges()
	h, err := FromEdges(g.NumVertices(), edges, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if !Equal(g, h) {
		t.Error("rebuilding from Edges() changed the graph")
	}
}

func TestAdjacencyIORoundTrip(t *testing.T) {
	g := fig3Graph(t)
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatalf("WriteAdjacency: %v", err)
	}
	h, err := ReadAdjacency(&buf)
	if err != nil {
		t.Fatalf("ReadAdjacency: %v", err)
	}
	if !Equal(g, h) {
		t.Error("adjacency round-trip changed the graph")
	}
}

func TestWeightedAdjacencyIORoundTrip(t *testing.T) {
	edges := []Edge{{0, 1, 5}, {1, 2, 7}, {2, 0, 9}, {0, 2, 1}}
	g, err := FromEdges(3, edges, true)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatalf("WriteAdjacency: %v", err)
	}
	h, err := ReadAdjacency(&buf)
	if err != nil {
		t.Fatalf("ReadAdjacency: %v", err)
	}
	if !h.Weighted() {
		t.Fatal("weighted flag lost")
	}
	if !Equal(g, h) {
		t.Error("weighted adjacency round-trip changed the graph")
	}
}

func TestEdgeListIORoundTrip(t *testing.T) {
	g := fig3Graph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if !Equal(g, h) {
		t.Error("edge-list round-trip changed the graph")
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% other comment\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestReadAdjacencyRejectsGarbage(t *testing.T) {
	cases := []string{
		"NotAHeader\n1\n0\n0\n",
		"AdjacencyGraph\n2\n1\n0\n0\n7\n", // target out of range
		"AdjacencyGraph\n2\n1\n5\n0\n0\n", // non-monotonic offsets
		"AdjacencyGraph\n2\n",             // truncated
	}
	for i, c := range cases {
		if _, err := ReadAdjacency(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

// TestReadersRejectOutOfRangeInput feeds crafted streams that used to be
// accepted with silently wrapped values, or that announced sizes far beyond
// the data they carry; each must fail with an error.
func TestReadersRejectOutOfRangeInput(t *testing.T) {
	cases := []struct {
		name string
		read func(io.Reader) (*Graph, error)
		in   string
	}{
		{"adjacency weight above int32", ReadAdjacency,
			"WeightedAdjacencyGraph\n2\n1\n0\n1\n1\n4294967297\n"},
		{"adjacency weight below int32", ReadAdjacency,
			"WeightedAdjacencyGraph\n2\n1\n0\n1\n1\n-2147483649\n"},
		{"adjacency n at 2^32", ReadAdjacency, "AdjacencyGraph\n4294967296\n0\n"},
		{"adjacency huge n, short stream", ReadAdjacency, "AdjacencyGraph\n4000000000\n0\n0\n"},
		{"adjacency huge m, short stream", ReadAdjacency, "AdjacencyGraph\n1\n1000000000000\n0\n0\n"},
		{"adjacency offset past m", ReadAdjacency, "AdjacencyGraph\n2\n1\n0\n2\n0\n"},
		{"adjacency missing weights", ReadAdjacency, "WeightedAdjacencyGraph\n2\n2\n0\n1\n1\n0\n5\n"},
		{"edge list source at 2^32", ReadEdgeList, "4294967296 0\n"},
		{"edge list destination at 2^32+1", ReadEdgeList, "0 4294967297\n"},
		{"edge list id at 2^32-1", ReadEdgeList, "0 4294967295\n"},
		{"edge list weight above int32", ReadEdgeList, "0 1 2147483648\n"},
	}
	for _, c := range cases {
		if g, err := c.read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted (n=%d m=%d), want an error", c.name, g.NumVertices(), g.NumEdges())
		}
	}
}

func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			Src:    VertexID(rng.Intn(n)),
			Dst:    VertexID(rng.Intn(n)),
			Weight: int32(rng.Intn(100) + 1),
		}
	}
	return edges
}

func randomPerm(rng *rand.Rand, n int) []VertexID {
	perm := make([]VertexID, n)
	for i, p := range rng.Perm(n) {
		perm[i] = VertexID(p)
	}
	return perm
}

// Property: relabelling preserves isomorphism and degree multisets for random
// graphs and random permutations.
func TestRelabelPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 2
		m := rng.Intn(300)
		g, err := FromEdges(n, randomEdges(rng, n, m), true)
		if err != nil {
			return false
		}
		perm := randomPerm(rng, n)
		h, err := g.Relabel(perm)
		if err != nil {
			return false
		}
		return IsIsomorphicUnder(g, h, perm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adjacency-format round trip is identity for random graphs.
func TestAdjacencyRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		m := rng.Intn(200)
		g, err := FromEdges(n, randomEdges(rng, n, m), seed%2 == 0)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteAdjacency(&buf, g); err != nil {
			return false
		}
		h, err := ReadAdjacency(&buf)
		if err != nil {
			return false
		}
		return Equal(g, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		g, err := FromEdges(n, randomEdges(rng, n, rng.Intn(250)), false)
		if err != nil {
			return false
		}
		return Equal(g, g.Transpose().Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
