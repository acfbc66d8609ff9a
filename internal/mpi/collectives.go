package mpi

import (
	"fmt"

	"distlouvain/internal/obsv"
)

// span opens a collective span on the attached tracer (no-op when tracing
// is off). Spans live on the non-delegating entry points only, so a scalar
// allreduce or AllOK still records exactly one span.
func (c *Comm) span(name string) obsv.SpanScope {
	return c.tracer.Begin(obsv.KindCollective, name)
}

// Op selects the combining operator of a reduction.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMin
	OpMax
)

func combineFloat64(op Op, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	default: // OpMax
		if b > a {
			return b
		}
		return a
	}
}

func combineInt64(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	default: // OpMax
		if b > a {
			return b
		}
		return a
	}
}

// Barrier blocks until every rank has entered it. It uses the dissemination
// algorithm: ceil(log2 p) rounds of one send and one receive each.
func (c *Comm) Barrier() error {
	sp := c.span("barrier")
	defer sp.End()
	tag := c.collTag()
	for k := 1; k < c.size; k <<= 1 {
		to := (c.rank + k) % c.size
		from := (c.rank - k%c.size + c.size) % c.size
		if err := c.collSend(to, tag, nil); err != nil {
			return err
		}
		if _, err := c.collRecv(from, tag); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's buffer to all ranks along a binomial tree and
// returns it. Non-root ranks pass nil (or anything; it is ignored).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if err := checkPeer(root, c.size, "Bcast"); err != nil {
		return nil, err
	}
	sp := c.span("bcast")
	sp.SetBytes(int64(len(data)))
	defer sp.End()
	tag := c.collTag()
	return c.bcast(root, tag, data)
}

func (c *Comm) bcast(root, tag int, data []byte) ([]byte, error) {
	vr := (c.rank - root + c.size) % c.size
	mask := 1
	for mask < c.size {
		if vr&mask != 0 {
			src := (c.rank - mask + c.size) % c.size
			msg, err := c.collRecv(src, tag)
			if err != nil {
				return nil, err
			}
			data = msg.Data
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < c.size {
			dst := (c.rank + mask) % c.size
			if err := c.collSend(dst, tag, data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// reduceBytes runs a binomial-tree reduction of fixed-size vectors to root.
// combine folds the incoming child buffer into acc in place.
func (c *Comm) reduceBytes(root, tag int, acc []byte, combine func(acc, in []byte) error) ([]byte, error) {
	vr := (c.rank - root + c.size) % c.size
	mask := 1
	for mask < c.size {
		if vr&mask == 0 {
			srcVR := vr | mask
			if srcVR < c.size {
				src := (srcVR + root) % c.size
				msg, err := c.collRecv(src, tag)
				if err != nil {
					return nil, err
				}
				if err := combine(acc, msg.Data); err != nil {
					return nil, err
				}
			}
		} else {
			dst := ((vr &^ mask) + root) % c.size
			if err := c.collSend(dst, tag, acc); err != nil {
				return nil, err
			}
			break
		}
		mask <<= 1
	}
	return acc, nil
}

// AllreduceFloat64s reduces vs element-wise across all ranks and returns the
// combined vector at every rank. All ranks must pass vectors of equal
// length. The input is not modified.
func (c *Comm) AllreduceFloat64s(vs []float64, op Op) ([]float64, error) {
	sp := c.span("allreduce")
	sp.SetBytes(int64(8 * len(vs)))
	defer sp.End()
	tag := c.collTag()
	acc := EncodeFloat64s(vs)
	combine := func(acc, in []byte) error {
		inVals, err := DecodeFloat64s(in)
		if err != nil {
			return err
		}
		return foldFloat64s(acc, inVals, op)
	}
	acc, err := c.reduceBytes(0, tag, acc, combine)
	if err != nil {
		return nil, err
	}
	out, err := c.bcast(0, tag, acc)
	if err != nil {
		return nil, err
	}
	return DecodeFloat64s(out)
}

func foldFloat64s(acc []byte, in []float64, op Op) error {
	cur, err := DecodeFloat64s(acc)
	if err != nil {
		return err
	}
	if len(cur) != len(in) {
		return errLenMismatch("AllreduceFloat64s", len(cur), len(in))
	}
	for i := range cur {
		cur[i] = combineFloat64(op, cur[i], in[i])
	}
	copy(acc, EncodeFloat64s(cur))
	return nil
}

// AllreduceInt64s is AllreduceFloat64s for int64 vectors.
func (c *Comm) AllreduceInt64s(vs []int64, op Op) ([]int64, error) {
	sp := c.span("allreduce")
	sp.SetBytes(int64(8 * len(vs)))
	defer sp.End()
	tag := c.collTag()
	acc := EncodeInt64s(vs)
	combine := func(acc, in []byte) error {
		inVals, err := DecodeInt64s(in)
		if err != nil {
			return err
		}
		cur, err := DecodeInt64s(acc)
		if err != nil {
			return err
		}
		if len(cur) != len(inVals) {
			return errLenMismatch("AllreduceInt64s", len(cur), len(inVals))
		}
		for i := range cur {
			cur[i] = combineInt64(op, cur[i], inVals[i])
		}
		copy(acc, EncodeInt64s(cur))
		return nil
	}
	acc, err := c.reduceBytes(0, tag, acc, combine)
	if err != nil {
		return nil, err
	}
	out, err := c.bcast(0, tag, acc)
	if err != nil {
		return nil, err
	}
	return DecodeInt64s(out)
}

// AllreduceFloat64 reduces one scalar.
func (c *Comm) AllreduceFloat64(v float64, op Op) (float64, error) {
	out, err := c.AllreduceFloat64s([]float64{v}, op)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// AllreduceInt64 reduces one scalar.
func (c *Comm) AllreduceInt64(v int64, op Op) (int64, error) {
	out, err := c.AllreduceInt64s([]int64{v}, op)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// AllOK is a world-wide error agreement: every rank passes its local error
// (nil for success) and AllOK returns nil only when every rank succeeded. A
// failed rank gets its own error back; the others get an error naming one
// failed rank. Because it is built on an allreduce it is also a barrier —
// no rank returns before every rank has entered — which is exactly the
// fence the checkpoint commit protocol needs: a manifest may only be
// written once all ranks' snapshots have durably landed.
func (c *Comm) AllOK(local error) error {
	flag := int64(-1)
	if local != nil {
		flag = int64(c.rank)
	}
	worst, err := c.AllreduceInt64(flag, OpMax)
	if err != nil {
		return err
	}
	if worst < 0 {
		return nil
	}
	if local != nil {
		return local
	}
	return fmt.Errorf("mpi: rank %d reported failure", worst)
}

// ExscanInt64 returns the exclusive prefix sum of v over ranks: rank r
// receives v_0+…+v_{r-1}; rank 0 receives 0. This is the parallel prefix the
// coarsening step uses to renumber communities globally (Fig. 1, step 3).
func (c *Comm) ExscanInt64(v int64) (int64, error) {
	sp := c.span("exscan")
	sp.SetBytes(8)
	defer sp.End()
	tag := c.collTag()
	acc := v
	var result int64
	for k := 1; k < c.size; k <<= 1 {
		if c.rank+k < c.size {
			if err := c.collSend(c.rank+k, tag, EncodeInt64s([]int64{acc})); err != nil {
				return 0, err
			}
		}
		if c.rank >= k {
			msg, err := c.collRecv(c.rank-k, tag)
			if err != nil {
				return 0, err
			}
			vals, err := DecodeInt64s(msg.Data)
			if err != nil {
				return 0, err
			}
			result += vals[0]
			acc += vals[0]
		}
	}
	return result, nil
}

// Allgather collects each rank's buffer at every rank, indexed by rank.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	sp := c.span("allgather")
	sp.SetBytes(int64(len(data) * (c.size - 1)))
	defer sp.End()
	tag := c.collTag()
	out := make([][]byte, c.size)
	cp := make([]byte, len(data))
	copy(cp, data)
	out[c.rank] = cp
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		if err := c.collSend(r, tag, data); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.size-1; i++ {
		msg, err := c.collRecv(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[msg.From] = msg.Data
	}
	return out, nil
}

// Gatherv collects every rank's buffer at root. Root receives a per-rank
// slice; other ranks receive nil.
func (c *Comm) Gatherv(root int, data []byte) ([][]byte, error) {
	if err := checkPeer(root, c.size, "Gatherv"); err != nil {
		return nil, err
	}
	sp := c.span("gatherv")
	sp.SetBytes(int64(len(data)))
	defer sp.End()
	tag := c.collTag()
	if c.rank != root {
		return nil, c.collSend(root, tag, data)
	}
	out := make([][]byte, c.size)
	cp := make([]byte, len(data))
	copy(cp, data)
	out[root] = cp
	for i := 0; i < c.size-1; i++ {
		msg, err := c.collRecv(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[msg.From] = msg.Data
	}
	return out, nil
}

// Alltoall performs a personalized exchange: rank r sends send[q] to rank q
// and returns recv where recv[q] is the buffer rank q addressed to r. Empty
// (including nil) buffers are exchanged too, so every rank always knows the
// exchange completed. This is the workhorse of the ghost-vertex and
// community-update protocols (MPI_Alltoallv in the paper's implementation).
// Every recv[q], this rank's own copy included, belongs to the caller, who
// may hand it back with Release once decoded.
func (c *Comm) Alltoall(send [][]byte) ([][]byte, error) {
	if len(send) != c.size {
		return nil, errLenMismatch("Alltoall", c.size, len(send))
	}
	sp := c.span("alltoall")
	for r, b := range send {
		if r != c.rank {
			sp.SetBytes(int64(len(b)))
		}
	}
	defer sp.End()
	tag := c.collTag()
	recv := make([][]byte, c.size)
	recv[c.rank] = acquire(c.t, len(send[c.rank]))
	copy(recv[c.rank], send[c.rank])
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		if err := c.collSend(r, tag, send[r]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.size-1; i++ {
		msg, err := c.collRecv(AnySource, tag)
		if err != nil {
			return nil, err
		}
		recv[msg.From] = msg.Data
	}
	return recv, nil
}

type lenMismatchError struct {
	op         string
	want, have int
}

func (e *lenMismatchError) Error() string {
	return "mpi: " + e.op + ": length mismatch"
}

func errLenMismatch(op string, want, have int) error {
	return &lenMismatchError{op: op, want: want, have: have}
}
