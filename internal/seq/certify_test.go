package seq

import (
	"errors"
	"math"
	"math/big"
	"runtime"
	"testing"

	"distlouvain/internal/graph"
	"distlouvain/internal/par"
)

// certifiedQ is the Q of labels' certificate over g.
func certifiedQ(t testing.TB, g *graph.CSR, labels []int64) float64 {
	t.Helper()
	c, err := Certify(g.N, g.Stream(), labels)
	if err != nil {
		t.Fatal(err)
	}
	return c.Q
}

// TestCertify is the certificate on hand-built cases, each raw edge list
// certified both as given and as the graph.CSR it builds: the two streams
// agree on Q bit for bit, since they hold the same integers once scaled.
func TestCertify(t *testing.T) {
	cliques := twoCliques().UndirectedEdges()
	singletons := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	// Each singleton scores −(k/m2)²; the cliques' degrees are 3 × 6 and 4 × 2
	// over m2 = 26.
	singletonQ := -(6*9.0 + 2*16.0) / (26 * 26)
	e := func(u, v int64, w float64) graph.RawEdge { return graph.RawEdge{U: u, V: v, W: w} }
	cases := []struct {
		name   string
		n      int64
		edges  []graph.RawEdge
		labels []int64
		want   Certificate
	}{
		{"singletons", 8, cliques, singletons, Certificate{Q: singletonQ, Communities: 8, Dense: true}},
		// One community: E = A = m2, so Q = 1 − 1.
		{"all-in-one", 8, cliques, make([]int64, 8), Certificate{Q: 0, Communities: 1, Dense: true}},
		// Each clique: E_c = 12 (6 edges, both ends), A_c = 13, m2 = 26.
		{"planted-optimum", 8, cliques, []int64{0, 0, 0, 0, 1, 1, 1, 1}, Certificate{Q: 24.0/26.0 - 0.5, Communities: 2, Dense: true}},
		{"empty-graph", 3, nil, []int64{0, 1, 2}, Certificate{Communities: 3, Dense: true}},
		// {0, 1, 6, 7} is two pieces, {2, 3, 4, 5} one path through the bridge:
		// E = 4 + 6, A = (12, 14).
		{"two-pieces", 8, cliques, []int64{0, 0, 1, 1, 1, 1, 0, 0}, Certificate{Q: 10.0/26 - (12*12+14*14)/676.0, Communities: 2, Dense: true, Disconnected: 1}},
		// Vertices 2 and 3 have no edge; every community is one vertex or
		// the edge 0–1.
		{"singletons-and-isolated", 4, []graph.RawEdge{e(0, 1, 1)}, []int64{0, 0, 1, 2}, Certificate{Q: 0, Communities: 3, Dense: true}},
		// A self loop is stored once: m2 = 2 + 2·1, E_0 = 2, A = (3, 1).
		{"self-loop", 2, []graph.RawEdge{e(0, 0, 2), e(0, 1, 1)}, []int64{0, 1}, Certificate{Q: 2.0/4 - 10.0/16, Communities: 2, Dense: true}},
		// Parallel edges sum: (0,1) weighs 3, (1,2) 1; m2 = 8, E_0 = 6, A = (7, 1).
		{"duplicates", 3, []graph.RawEdge{e(0, 1, 1), e(1, 2, 1), e(1, 0, 2)}, []int64{0, 0, 1}, Certificate{Q: 6.0/8 - 50.0/64, Communities: 2, Dense: true}},
		{"zero-weight", 2, []graph.RawEdge{e(0, 1, 0)}, []int64{0, 1}, Certificate{Communities: 2, Dense: true}},
		// A_0 = 2²⁶ squares to 2⁵², 2²⁷ to 2⁵⁴: Σ A_c² is exact either way.
		{"square-sum-below-2^53", 2, []graph.RawEdge{e(0, 1, 1<<25)}, []int64{0, 0}, Certificate{Communities: 1, Dense: true}},
		{"square-sum-past-2^53", 2, []graph.RawEdge{e(0, 1, 1<<26)}, []int64{0, 0}, Certificate{Communities: 1, Dense: true}},
		// 4 arcs, Σ⌈w⌉ = 6, the largest 1.5: s = 49 is the largest scale with
		// 2^s·6 ≤ 2⁵² or 4·⌈2^s·1.5⌉ ≤ 2⁵². A power of two scales exactly.
		{"float", 3, []graph.RawEdge{e(0, 1, 0.5), e(1, 2, 1.5)}, []int64{0, 0, 1}, Certificate{Q: 1.0/4 - (2.5*2.5+1.5*1.5)/16, Scale: 49, Communities: 2, Dense: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Certify(tc.n, graph.Edges(tc.edges), tc.labels)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Q-tc.want.Q) > 1e-12 {
				t.Fatalf("Q = %.17g, want %.17g", got.Q, tc.want.Q)
			}
			csr := certifiedQ(t, graph.FromRawEdges(tc.n, tc.edges), tc.labels)
			if math.Float64bits(csr) != math.Float64bits(got.Q) {
				t.Fatalf("the CSR certifies to Q %.17g, the raw edges to %.17g", csr, got.Q)
			}
			if got.Q = tc.want.Q; got != tc.want {
				t.Fatalf("certificate %+v, want %+v", got, tc.want)
			}
		})
	}
	t.Run("bad-weights", func(t *testing.T) {
		for _, w := range []float64{math.NaN(), math.Inf(1), -1} {
			if _, err := Certify(2, graph.Edges([]graph.RawEdge{e(0, 1, 1), e(0, 1, w)}), []int64{0, 1}); !errors.Is(err, graph.ErrWeight) {
				t.Fatalf("weight %v: err %v, want graph.ErrWeight", w, err)
			}
		}
	})
	t.Run("bad-labels", func(t *testing.T) {
		for _, labels := range [][]int64{{0}, {0, 0, 0, 0, 0, 0, 0, 8}, {-1, 0, 0, 0, 0, 0, 0, 0}} {
			if _, err := Certify(8, graph.Edges(cliques), labels); !errors.Is(err, ErrLabels) {
				t.Fatalf("labels %v: err %v, want ErrLabels", labels, err)
			}
		}
	})
}

// TestCommunityHelpers: the certificate counts the labels in use, and labels
// that skip values are not dense. {0,1} and {2,3,4} hold every edge, so E = 2m
// and A = (2, 4, 0).
func TestCommunityHelpers(t *testing.T) {
	edges := []graph.RawEdge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1}}
	c, err := Certify(6, graph.Edges(edges), []int64{3, 3, 5, 5, 5, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Certificate{Q: 1 - 20.0/36, Communities: 3}); c != want {
		t.Fatalf("certificate %+v, want %+v", c, want)
	}
}

// TestCertifyMemory holds the certificate to O(n) memory: 10⁶ edges over
// 1 000 vertices, streamed from one reused chunk, allocate what the vertices
// need and nothing per edge.
func TestCertifyMemory(t *testing.T) {
	const n, m = 1000, 1 << 20
	labels := make([]int64, n)
	for v := range labels {
		labels[v] = int64(v % 10)
	}
	chunk := make([]graph.RawEdge, 1024)
	edges := func(visit func([]graph.RawEdge) error) error {
		rng := par.NewXoshiro256(7)
		for sent := 0; sent < m; sent += len(chunk) {
			for i := range chunk {
				chunk[i] = graph.RawEdge{U: rng.Int63n(n), V: rng.Int63n(n), W: 1}
			}
			if err := visit(chunk); err != nil {
				return err
			}
		}
		return nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Certify(n, edges, labels)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if c.Communities != 10 || c.Scale != 0 {
		t.Fatalf("certificate %+v", c)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*n+4096); got > limit {
		t.Fatalf("certifying %d edges over %d vertices allocated %d B, over %d", m, n, got, limit)
	}
}

// FuzzCertify draws small graphs, integer- or float-weighted, and label
// vectors. Certify never panics, fails bad labels with ErrLabels, and counts at
// most as many disconnected communities as communities. The certificate — Q
// bits included — is the same for the edges in any order (Scale too), for
// the graph.CSR they build (which holds them scaled, at Scale 0), and under
// any renaming of the label values.
func FuzzCertify(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 2, 2, 3, 3}, []byte{0, 0, 1, 1}, uint64(1))
	f.Add([]byte{8, 0, 0, 3, 1, 1, 7, 200, 2, 0}, []byte{0, 9, 1}, uint64(2))
	f.Add([]byte{3, 0, 1, 130}, []byte{2, 2, 2}, uint64(3))
	f.Add([]byte{5, 0, 1, 200, 1, 2, 131, 2, 3, 5, 3, 4, 250, 4, 4, 129}, []byte{0, 0, 0, 1, 1}, uint64(4))
	f.Fuzz(func(t *testing.T, graphBytes, labelBytes []byte, seed uint64) {
		if len(graphBytes) == 0 {
			return
		}
		n := int64(graphBytes[0]%16) + 1
		var edges []graph.RawEdge
		for b := graphBytes[1:]; len(b) >= 3; b = b[3:] {
			w := float64(b[2] % 8)
			if b[2] >= 128 {
				w = float64(b[2]) / 7
			}
			edges = append(edges, graph.RawEdge{U: int64(b[0]) % n, V: int64(b[1]) % n, W: w})
		}
		labels := make([]int64, len(labelBytes))
		valid := int64(len(labels)) == n
		for v, b := range labelBytes {
			labels[v] = int64(int8(b))
			valid = valid && labels[v] >= 0 && labels[v] < n
		}
		c, err := Certify(n, graph.Edges(edges), labels)
		if !valid {
			if !errors.Is(err, ErrLabels) {
				t.Fatalf("labels %v over %d vertices: err %v, want ErrLabels", labels, n, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.Disconnected < 0 || c.Disconnected > c.Communities || c.Communities > n {
			t.Fatalf("certificate %+v over %d vertices", c, n)
		}
		scaled := c
		scaled.Scale = 0 // the CSR holds the weights scaled
		if csr, err := Certify(n, graph.FromRawEdges(n, edges).Stream(), labels); err != nil || csr != scaled {
			t.Fatalf("the CSR certifies to %+v (%v), the raw edges to %+v", csr, err, c)
		}
		rng := par.NewXoshiro256(seed)
		shuffle := func(n int, swap func(i, j int)) {
			for i := n - 1; i > 0; i-- {
				swap(i, int(rng.Int63n(int64(i)+1)))
			}
		}
		shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		if s, err := Certify(n, graph.Edges(edges), labels); err != nil || s != c {
			t.Fatalf("the shuffled edges certify to %+v (%v), the edges to %+v", s, err, c)
		}
		rename := make([]int64, n)
		for i := range rename {
			rename[i] = int64(i)
		}
		shuffle(len(rename), func(i, j int) { rename[i], rename[j] = rename[j], rename[i] })
		renamed := make([]int64, n)
		for v, l := range labels {
			renamed[v] = rename[l]
		}
		r, err := Certify(n, graph.Edges(edges), renamed)
		if err != nil || math.Float64bits(r.Q) != math.Float64bits(c.Q) || r.Disconnected != c.Disconnected || r.Communities != c.Communities {
			t.Fatalf("renamed labels certify to %+v (%v), the labels to %+v", r, err, c)
		}
	})
}

// TestSquareSum holds the 128-bit Σ a² to math/big: Add, the limbs an
// allreduce of four ranks' sums adds up, and the rounding to float64, on sums
// that a float64 accumulation would round.
func TestSquareSum(t *testing.T) {
	rng := par.NewXoshiro256(11)
	for trial := 0; trial < 200; trial++ {
		var ranks [4]SquareSum
		want := new(big.Int)
		for i := 0; i < 64; i++ {
			a := float64(rng.Int63n(1 << (1 + trial%53)))
			ranks[i%4].Add(a)
			x := new(big.Int).SetUint64(uint64(a))
			want.Add(want, x.Mul(x, x))
		}
		var limbs [SquareLimbs]float64
		for _, r := range ranks {
			var l [SquareLimbs]float64
			r.Limbs(l[:])
			for i := range limbs {
				limbs[i] += l[i]
			}
		}
		got := SquareSumOfLimbs(limbs[:])
		if g := new(big.Int).Lsh(new(big.Int).SetUint64(got.hi), 64); g.Or(g, new(big.Int).SetUint64(got.lo)).Cmp(want) != 0 {
			t.Fatalf("trial %d: Σ a² = %v, want %v", trial, g, want)
		}
		if f, _ := new(big.Float).SetInt(want).Float64(); math.Float64bits(got.Float64()) != math.Float64bits(f) {
			t.Fatalf("trial %d: %v rounds to %v, want %v", trial, want, got.Float64(), f)
		}
	}
}
