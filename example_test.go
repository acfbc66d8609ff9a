package distlouvain_test

import (
	"fmt"

	"distlouvain"
)

// Two triangles joined by a weak bridge: the canonical two-community input.
func twoTriangles() (int64, []distlouvain.Edge) {
	return 6, []distlouvain.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
		{U: 2, V: 3, W: 0.1},
	}
}

func ExampleDetect() {
	n, edges := twoTriangles()
	res, err := distlouvain.Detect(n, edges, distlouvain.Options{Ranks: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("communities:", res.NumCommunities)
	fmt.Println("same side:", res.Communities[0] == res.Communities[2])
	fmt.Println("across bridge:", res.Communities[2] == res.Communities[3])
	// Output:
	// communities: 2
	// same side: true
	// across bridge: false
}

func ExampleDetectSerial() {
	n, edges := twoTriangles()
	res, err := distlouvain.DetectSerial(n, edges, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("communities:", res.NumCommunities)
	// Output:
	// communities: 2
}

func ExampleCompareToGroundTruth() {
	truth := []int64{0, 0, 0, 1, 1, 1}
	detected := []int64{7, 7, 7, 9, 9, 9} // same partition, different labels
	score, err := distlouvain.CompareToGroundTruth(detected, truth)
	if err != nil {
		panic(err)
	}
	fmt.Printf("precision=%.1f recall=%.1f f=%.1f\n", score.Precision, score.Recall, score.FScore)
	// Output:
	// precision=1.0 recall=1.0 f=1.0
}

func ExampleCertify() {
	n, edges := twoTriangles()
	cert, err := distlouvain.Certify(n, edges, []int64{0, 0, 0, 1, 1, 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Q=%.3f scale=%d communities=%d disconnected=%d\n", cert.Q, cert.Scale, cert.Communities, cert.Disconnected)
	// Output:
	// Q=0.484 scale=48 communities=2 disconnected=0
}
