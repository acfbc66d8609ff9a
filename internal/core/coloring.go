package core

import (
	"fmt"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/par"
)

// DistColoring computes a distance-1 coloring of the distributed graph with
// the Jones–Plassmann algorithm: every vertex draws a random priority; in
// each round, an uncolored vertex whose priority beats all of its uncolored
// neighbours takes the smallest color absent from its colored
// neighbourhood. Ghost colors are refreshed between rounds, so adjacent
// vertices — including cross-rank pairs — never share a color.
//
// It returns this rank's local colors and the global color count. This
// implements the distributed half of the paper's §VI future work ("use of
// distance-1 coloring to ensure that the set of vertices that are processed
// in parallel ... are mutually non-adjacent").
func DistColoring(dg *dgraph.DistGraph, seed uint64) ([]int32, int, error) {
	c := dg.Comm
	n := dg.LocalN
	color := make([]int32, n)
	for i := range color {
		color[i] = -1
	}
	// Deterministic global priorities: every rank derives the same value
	// for the same global vertex, so no exchange is needed for weights.
	prio := func(g int64) uint64 { return par.Mix64(seed ^ uint64(g)*0x9e3779b97f4a7c15) }

	// Ghost color table, refreshed per round via the same push lists the
	// Louvain iteration uses (rebuilt locally here to keep the coloring
	// self-contained).
	p := c.Size()
	ghostSlots := make([][]int32, p)
	for i := range dg.Ghosts {
		o := dg.GhostOwner[i]
		ghostSlots[o] = append(ghostSlots[o], int32(i))
	}
	send := make([][]byte, p)
	for q := 0; q < p; q++ {
		ids := make([]int64, len(ghostSlots[q]))
		for i, slot := range ghostSlots[q] {
			ids[i] = dg.Ghosts[slot]
		}
		send[q] = mpi.EncodeInt64s(ids)
	}
	recv, err := c.Alltoall(send)
	if err != nil {
		return nil, 0, err
	}
	pushList := make([][]int64, p)
	for q := 0; q < p; q++ {
		ids, err := mpi.DecodeInt64s(recv[q])
		if err != nil {
			return nil, 0, err
		}
		pushList[q] = make([]int64, len(ids))
		for i, g := range ids {
			if !dg.IsLocal(g) {
				return nil, 0, fmt.Errorf("core: coloring: rank %d asked for non-owned vertex %d", q, g)
			}
			pushList[q][i] = g - dg.Base
		}
	}
	ghostColor := make([]int32, len(dg.Ghosts))
	for i := range ghostColor {
		ghostColor[i] = -1
	}
	exchangeColors := func() error {
		out := make([][]byte, p)
		for q := 0; q < p; q++ {
			buf := make([]byte, 0, 8*len(pushList[q]))
			for _, lv := range pushList[q] {
				buf = mpi.AppendInt64(buf, int64(color[lv]))
			}
			out[q] = buf
		}
		in, err := c.Alltoall(out)
		if err != nil {
			return err
		}
		for q := 0; q < p; q++ {
			vals, err := mpi.DecodeInt64s(in[q])
			if err != nil {
				return err
			}
			if len(vals) != len(ghostSlots[q]) {
				return fmt.Errorf("core: coloring: short color reply from rank %d", q)
			}
			for i, v := range vals {
				ghostColor[ghostSlots[q][i]] = int32(v)
			}
		}
		return nil
	}

	colorOf := func(g int64) int32 {
		if dg.IsLocal(g) {
			return color[g-dg.Base]
		}
		i, _ := dg.GhostSlot(g) // every non-owned target is a ghost
		return ghostColor[i]
	}

	maxColor := int32(0)
	for round := 0; ; round++ {
		if err := exchangeColors(); err != nil {
			return nil, 0, err
		}
		var coloredNow int64
		forbidden := make(map[int32]struct{}, 16)
		for lv := int64(0); lv < n; lv++ {
			if color[lv] >= 0 {
				continue
			}
			g := dg.Global(lv)
			pg := prio(g)
			dominant := true
			clear(forbidden)
			for _, e := range dg.Neighbors(lv) {
				if e.To == g {
					continue
				}
				nc := colorOf(e.To)
				if nc >= 0 {
					forbidden[nc] = struct{}{}
					continue
				}
				pu := prio(e.To)
				if pu > pg || (pu == pg && e.To > g) {
					dominant = false
					break
				}
			}
			if !dominant {
				continue
			}
			var pick int32
			for {
				if _, used := forbidden[pick]; !used {
					break
				}
				pick++
			}
			color[lv] = pick
			if pick+1 > maxColor {
				maxColor = pick + 1
			}
			coloredNow++
		}
		remaining, err := c.AllreduceInt64(countUncolored(color), mpi.OpSum)
		if err != nil {
			return nil, 0, err
		}
		if remaining == 0 {
			break
		}
		if coloredNow == 0 && round > int(dg.GlobalN)+1 {
			return nil, 0, fmt.Errorf("core: coloring failed to make progress")
		}
	}
	globalMax, err := c.AllreduceInt64(int64(maxColor), mpi.OpMax)
	if err != nil {
		return nil, 0, err
	}
	return color, int(globalMax), nil
}

func countUncolored(color []int32) int64 {
	var c int64
	for _, v := range color {
		if v < 0 {
			c++
		}
	}
	return c
}

// colorClasses groups local vertices by color.
func colorClasses(color []int32, numColors int) [][]int64 {
	classes := make([][]int64, numColors)
	for lv, c := range color {
		classes[c] = append(classes[c], int64(lv))
	}
	return classes
}

// ValidateDistColoring checks (collectively) that no edge connects two
// vertices of the same color. Exposed for tests and diagnostics.
func ValidateDistColoring(dg *dgraph.DistGraph, color []int32) (bool, error) {
	// Refresh ghost colors once, then check every local arc.
	c := dg.Comm
	p := c.Size()
	ghostSlots := make([][]int32, p)
	for i := range dg.Ghosts {
		ghostSlots[dg.GhostOwner[i]] = append(ghostSlots[dg.GhostOwner[i]], int32(i))
	}
	send := make([][]byte, p)
	for q := 0; q < p; q++ {
		ids := make([]int64, len(ghostSlots[q]))
		for i, slot := range ghostSlots[q] {
			ids[i] = dg.Ghosts[slot]
		}
		send[q] = mpi.EncodeInt64s(ids)
	}
	recv, err := c.Alltoall(send)
	if err != nil {
		return false, err
	}
	resp := make([][]byte, p)
	for q := 0; q < p; q++ {
		ids, err := mpi.DecodeInt64s(recv[q])
		if err != nil {
			return false, err
		}
		buf := make([]byte, 0, 8*len(ids))
		for _, g := range ids {
			buf = mpi.AppendInt64(buf, int64(color[g-dg.Base]))
		}
		resp[q] = buf
	}
	answers, err := c.Alltoall(resp)
	if err != nil {
		return false, err
	}
	ghostColor := make([]int32, len(dg.Ghosts))
	for q := 0; q < p; q++ {
		vals, err := mpi.DecodeInt64s(answers[q])
		if err != nil {
			return false, err
		}
		for i, v := range vals {
			ghostColor[ghostSlots[q][i]] = int32(v)
		}
	}
	ok := int64(1)
	for lv := int64(0); lv < dg.LocalN; lv++ {
		g := dg.Global(lv)
		for _, e := range dg.Neighbors(lv) {
			if e.To == g {
				continue
			}
			var nc int32
			if dg.IsLocal(e.To) {
				nc = color[e.To-dg.Base]
			} else {
				i, _ := dg.GhostSlot(e.To)
				nc = ghostColor[i]
			}
			if nc == color[lv] {
				ok = 0
			}
		}
	}
	allOK, err := c.AllreduceInt64(ok, mpi.OpMin)
	if err != nil {
		return false, err
	}
	return allOK == 1, nil
}
