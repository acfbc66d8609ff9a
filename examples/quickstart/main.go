// Quickstart: detect communities in a small hand-built graph with the
// public API, print the assignment, and verify the modularity.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"distlouvain"
)

func main() {
	// Two 4-cliques joined by a single bridge edge — the canonical
	// community-detection example.
	var edges []distlouvain.Edge
	addClique := func(vs ...int64) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, distlouvain.Edge{U: vs[i], V: vs[j], W: 1})
			}
		}
	}
	addClique(0, 1, 2, 3)
	addClique(4, 5, 6, 7)
	edges = append(edges, distlouvain.Edge{U: 3, V: 4, W: 1})

	// Run the distributed Louvain method on 2 simulated ranks.
	res, err := distlouvain.Detect(8, edges, distlouvain.Options{Ranks: 2})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("found %d communities, modularity %.4f, %d iterations in %v\n",
		res.NumCommunities, res.Modularity, res.TotalIterations, res.Runtime)
	for v, c := range res.Communities {
		fmt.Printf("  vertex %d -> community %d\n", v, c)
	}

	// The labels certify to the reported modularity, bit for bit; Scale is
	// the exponent by which the weights were scaled before they were rounded
	// to integers (0 here: they are integers, and keep their values).
	cert, err := distlouvain.Check(8, edges, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certified: Q %.4f, scale %d, %d disconnected communities\n", cert.Q, cert.Scale, cert.Disconnected)
}
