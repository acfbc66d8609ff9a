package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Category is a column of the paper's §V-A time breakdown (Fig. 4): where
// did a phase's wall time go.
type Category int

const (
	// CatCompute: local work — neighbor sweeps, modularity accumulation.
	CatCompute Category = iota
	// CatP2P: point-to-point style exchanges — ghost and community-info
	// traffic (the paper's "communication within a phase", ~34%).
	CatP2P
	// CatCollective: collectives issued directly by the driver, dominated
	// by the per-iteration modularity allreduce (~40% in the paper).
	CatCollective
	// CatCoarsen: graph rebuild between phases, including its internal
	// collectives.
	CatCoarsen
	// CatCheckpoint: checkpoint writes and resume loads, including fences.
	CatCheckpoint
	numCategories
)

var categoryNames = [numCategories]string{"compute", "p2p", "collective", "coarsen", "checkpoint"}

func (c Category) String() string {
	if c >= 0 && int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "category(" + strconv.Itoa(int(c)) + ")"
}

// stepCategory assigns a category to the named driver steps. A span with a
// direct category absorbs the time of everything nested under it, so the
// alltoalls inside "community-fetch" count as p2p (not collective) and the
// collectives inside "rebuild" count as coarsening — matching how the
// paper buckets its breakdown.
var stepCategory = map[string]Category{
	"ghost-setup":        CatP2P,
	"ghost-exchange":     CatP2P,
	"community-fetch":    CatP2P,
	"community-push":     CatP2P,
	"flatten":            CatP2P,
	"gather-output":      CatP2P,
	"sweep":              CatCompute,
	"frontier-build":     CatCompute,
	"modularity-compute": CatCompute,
	"rebuild":            CatCoarsen,
	"checkpoint":         CatCheckpoint,
	"resume-load":        CatCheckpoint,
}

// directCategory returns the category a span claims for itself, if any.
func directCategory(s Span) (Category, bool) {
	if c, ok := stepCategory[s.Name]; ok {
		return c, true
	}
	switch s.Kind {
	case KindCollective:
		return CatCollective, true
	case KindCheckpoint:
		return CatCheckpoint, true
	}
	return 0, false
}

// PhaseBreakdown is one row of the report.
type PhaseBreakdown struct {
	Phase      int
	Iterations int
	Total      time.Duration // wall time of the phase span
	Cat        [numCategories]time.Duration
	// Bytes is the payload volume the row's spans reported via SetBytes,
	// bucketed like the time columns: traffic of a collective nested inside
	// a composite step (the alltoalls of "community-fetch", the collectives
	// of "rebuild") counts toward the composite's category, so the p2p
	// column is the §V-A "communication within a phase" payload and the
	// collective column the driver's own reductions.
	Bytes [numCategories]int64
	// Touched sums the vertices this rank's sweeps evaluated across the
	// phase (the Count of "sweep" spans); Frontier sums the active-set sizes
	// offered to them (the Count of "frontier-build" spans). Rank-local
	// figures — the globally allreduced trajectory lives in
	// core.PhaseStat.TouchedTrajectory.
	Touched  int64
	Frontier int64
	// Returns sums the phase's moves back into the community the vertex had
	// left one iteration earlier (the Count of "iteration" spans: the global,
	// allreduced figure, the same on every rank), and DampedFrom is the
	// iteration whose "damped" marker says the return rule applied from there
	// on (0: never). Returns that keep pace with the moves mean the phase is
	// flip-flopping, not converging (core.PhaseStat.ReturnsTrajectory).
	Returns    int64
	DampedFrom int
}

// Accounted sums the categorized time; the gap to Total is the row's
// "%other" (uninstrumented driver work between steps).
func (p *PhaseBreakdown) Accounted() time.Duration {
	var sum time.Duration
	for _, d := range p.Cat {
		sum += d
	}
	return sum
}

// Report is the per-rank §V-A-style timing breakdown.
type Report struct {
	Rank    int
	Total   time.Duration // run-span wall time (0 if no run span completed)
	Phases  []PhaseBreakdown
	Overall PhaseBreakdown // Phase == -1; sums across phases + out-of-phase work
}

// BuildReport aggregates a rank's spans into per-phase category totals.
// Each span's full duration is charged to its own direct category unless
// an ancestor already claimed one — so nested collectives are not double
// counted, and composite steps absorb their internals.
//
// A span is charged to a phase row only when it is structurally nested in a
// phase span; run-level work outside any phase (resume-load, gather-output)
// lands in the overall row only, and spans outside the run span entirely
// (graph distribution before Run starts) are excluded — the report describes
// the run, and a phase row must never account more time than its own wall
// clock. When the snapshot holds no run span at all (a truncated post-mortem
// trace), the run-nesting requirement is waived so partial traces still
// report.
func BuildReport(spans []Span) *Report {
	byID := make(map[uint64]Span, len(spans))
	hasRun := false
	for _, s := range spans {
		byID[s.ID] = s
		if s.Kind == KindRun {
			hasRun = true
		}
	}
	// classify walks the ancestor chain; coverCat is the OUTERMOST ancestor
	// with a direct category (the composite step that absorbs this span's
	// time — and receives its bytes).
	classify := func(s Span) (covered, inRun, inPhase bool, coverCat Category) {
		for pid := s.Parent; pid != 0; {
			p, ok := byID[pid]
			if !ok {
				break
			}
			if c, direct := directCategory(p); direct {
				covered = true
				coverCat = c
			}
			switch p.Kind {
			case KindRun:
				inRun = true
			case KindPhase:
				inPhase = true
			}
			pid = p.Parent
		}
		return
	}

	rep := &Report{Overall: PhaseBreakdown{Phase: -1}}
	rows := make(map[int]*PhaseBreakdown)
	row := func(phase int) *PhaseBreakdown {
		pb, ok := rows[phase]
		if !ok {
			pb = &PhaseBreakdown{Phase: phase}
			rows[phase] = pb
		}
		return pb
	}

	for _, s := range spans {
		rep.Rank = s.Rank
		switch s.Kind {
		case KindRun:
			if d := time.Duration(s.Dur); d > rep.Total {
				rep.Total = d
			}
			continue
		case KindPhase:
			row(s.Phase).Total += time.Duration(s.Dur)
		case KindIteration:
			row(s.Phase).Iterations++
			row(s.Phase).Returns += s.Count
			rep.Overall.Returns += s.Count
		}
		if s.Name == "damped" {
			row(s.Phase).DampedFrom = s.Iter
			continue
		}
		c, direct := directCategory(s)
		if !direct {
			continue
		}
		covered, inRun, inPhase, coverCat := classify(s)
		if hasRun && !inRun {
			continue
		}
		// Bytes roll up into the covering composite's category (time does
		// not — it would double count); an uncovered span keeps its own.
		if s.Bytes != 0 {
			bc := c
			if covered {
				bc = coverCat
			}
			rep.Overall.Bytes[bc] += s.Bytes
			if inPhase {
				row(s.Phase).Bytes[bc] += s.Bytes
			}
		}
		// Counts accumulate by span name, never through composites: only the
		// sweep and frontier-build steps define them.
		if s.Count != 0 && (s.Name == "sweep" || s.Name == "frontier-build") {
			touched, front := s.Count, int64(0)
			if s.Name == "frontier-build" {
				touched, front = 0, s.Count
			}
			rep.Overall.Touched += touched
			rep.Overall.Frontier += front
			if inPhase {
				row(s.Phase).Touched += touched
				row(s.Phase).Frontier += front
			}
		}
		if covered {
			continue
		}
		d := time.Duration(s.Dur)
		rep.Overall.Cat[c] += d
		if inPhase {
			row(s.Phase).Cat[c] += d
		}
	}

	phases := make([]int, 0, len(rows))
	for p := range rows {
		phases = append(phases, p)
	}
	sort.Ints(phases)
	for _, p := range phases {
		pb := rows[p]
		rep.Phases = append(rep.Phases, *pb)
		rep.Overall.Iterations += pb.Iterations
		rep.Overall.Total += pb.Total
	}
	return rep
}

// Format writes the breakdown as a table. Percentages are of the row's
// phase wall time; the "all" row uses the run span's wall time when one
// completed, so %other there includes inter-phase overheads.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "per-phase time breakdown (rank %d):\n", r.Rank)
	fmt.Fprintf(w, "%7s %6s %12s %7s %7s %9s %9s %6s %7s %9s %9s %9s %9s %9s %6s\n",
		"phase", "iters", "total", "%p2p", "%coll", "%coarsen", "%compute", "%ckpt", "%other", "p2pB", "collB", "touched", "frontier", "returns", "damped")
	writeRow := func(label string, pb PhaseBreakdown) {
		total := pb.Total
		if total <= 0 {
			total = pb.Accounted()
		}
		if total <= 0 {
			return
		}
		pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
		other := total - pb.Accounted()
		if other < 0 {
			other = 0
		}
		damped := "-"
		if pb.DampedFrom > 0 {
			damped = strconv.Itoa(pb.DampedFrom)
		}
		fmt.Fprintf(w, "%7s %6d %12s %7.1f %7.1f %9.1f %9.1f %6.1f %7.1f %9s %9s %9d %9d %9d %6s\n",
			label, pb.Iterations, total.Round(time.Microsecond),
			pct(pb.Cat[CatP2P]), pct(pb.Cat[CatCollective]), pct(pb.Cat[CatCoarsen]),
			pct(pb.Cat[CatCompute]), pct(pb.Cat[CatCheckpoint]), pct(other),
			formatBytes(pb.Bytes[CatP2P]), formatBytes(pb.Bytes[CatCollective]),
			pb.Touched, pb.Frontier, pb.Returns, damped)
	}
	for _, pb := range r.Phases {
		writeRow(strconv.Itoa(pb.Phase), pb)
	}
	overall := r.Overall
	if r.Total > 0 {
		overall.Total = r.Total
	}
	writeRow("all", overall)
}

// formatBytes renders a byte count compactly (12.3KB, 4.5MB).
func formatBytes(n int64) string {
	switch {
	case n >= 10*1000*1000:
		return fmt.Sprintf("%.1fMB", float64(n)/1e6)
	case n >= 10*1000:
		return fmt.Sprintf("%.1fKB", float64(n)/1e3)
	default:
		return strconv.FormatInt(n, 10) + "B"
	}
}
