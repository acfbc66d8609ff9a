package par

import "sync"

// For runs body(worker, lo, hi) on nworkers goroutines, statically splitting
// [0, n) into nworkers near-equal contiguous chunks, and waits for all of
// them. It is the moral equivalent of "#pragma omp parallel for schedule(static)".
//
// A worker whose chunk is empty is not spawned. With nworkers <= 1 the body
// runs inline, which keeps single-threaded configurations allocation-free.
func For(n, nworkers int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if nworkers <= 1 || n == 1 {
		body(0, 0, n)
		return
	}
	if nworkers > n {
		nworkers = n
	}
	var wg sync.WaitGroup
	chunk := n / nworkers
	rem := n % nworkers
	lo := 0
	for w := 0; w < nworkers; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		if hi > lo {
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				body(w, lo, hi)
			}(w, lo, hi)
		}
		lo = hi
	}
	wg.Wait()
}

// ReduceInt64 computes the sum of per-worker partial results produced by body
// over [0, n). Each worker accumulates privately; partials are summed once at
// the end, so no atomics are involved in the hot loop.
func ReduceInt64(n, nworkers int, body func(worker, lo, hi int) int64) int64 {
	if n <= 0 {
		return 0
	}
	if nworkers <= 1 {
		return body(0, 0, n)
	}
	if nworkers > n {
		nworkers = n
	}
	partial := make([]int64, nworkers)
	For(n, nworkers, func(w, lo, hi int) {
		partial[w] = body(w, lo, hi)
	})
	var sum int64
	for _, v := range partial {
		sum += v
	}
	return sum
}
