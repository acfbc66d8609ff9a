package obsv

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndPath(t *testing.T) {
	tr := NewTracer(2, 16)
	run := tr.Begin(KindRun, "run")
	tr.SetPos(1, 0)
	ph := tr.Begin(KindPhase, "phase")
	tr.SetPos(1, 3)
	it := tr.Begin(KindIteration, "iteration")
	st := tr.Begin(KindP2P, "community-fetch")
	if got, want := tr.Path(), "run/phase[1]/iteration[3]/community-fetch"; got != want {
		t.Fatalf("Path = %q, want %q", got, want)
	}
	st.End()
	it.End()
	ph.End()
	run.End()
	if p := tr.Path(); p != "" {
		t.Fatalf("Path after all ends = %q, want empty", p)
	}

	lines := StructureLines(tr.Snapshot())
	want := []string{
		"run",
		"  phase[1]",
		"    iteration[3]",
		"      community-fetch",
	}
	if len(lines) != len(want) {
		t.Fatalf("structure %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
	for _, s := range tr.Snapshot() {
		if s.Rank != 2 {
			t.Fatalf("span rank %d, want 2", s.Rank)
		}
	}
}

func TestOutOfOrderEnd(t *testing.T) {
	tr := NewTracer(0, 16)
	a := tr.Begin(KindStep, "a")
	b := tr.Begin(KindStep, "b")
	a.End() // out of order: a removed from mid-stack, b stays open
	if got, want := tr.Path(), "b"; got != want {
		t.Fatalf("Path = %q, want %q", got, want)
	}
	b.End()
	b.End() // double End is a no-op
	if n := len(tr.Snapshot()); n != 2 {
		t.Fatalf("%d spans recorded, want 2", n)
	}
}

func TestRingOverwriteAndTail(t *testing.T) {
	tr := NewTracer(0, 4)
	for i := 0; i < 10; i++ {
		tr.Event(KindEvent, "e")
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d spans, want 4", len(snap))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	// Oldest-first: the survivors are the last 4 events (IDs 7..10).
	for i, s := range snap {
		if want := uint64(7 + i); s.ID != want {
			t.Fatalf("snap[%d].ID = %d, want %d", i, s.ID, want)
		}
	}
	tail := tr.Tail(2)
	if len(tail) != 2 || tail[1].ID != 10 {
		t.Fatalf("Tail(2) = %v", tail)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.SetPos(1, 2)
	sp := tr.Begin(KindStep, "x")
	sp.SetBytes(100)
	sp.End()
	dp := tr.BeginDetached(KindCollective, "y")
	dp.End()
	tr.Event(KindEvent, "z")
	if tr.Path() != "" || tr.Snapshot() != nil || tr.Dropped() != 0 || tr.Rank() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	var reg *Registry
	reg.AttachCounters("s", func() map[string]int64 { return nil })
	reg.BeginGeneration()
	reg.RecordEvent("k", "n", nil)
	reg.RecordGenerationCounters()
	if reg.Records() != nil || reg.GenerationDelta("s") != nil || reg.Generation() != 0 {
		t.Fatal("nil registry leaked state")
	}
}

// TestDisabledTracerZeroAlloc pins the overhead budget of disabled tracing:
// the nil-receiver fast path must not allocate at all, so unconditional
// instrumentation is free when observability is off.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(KindCollective, "allreduce")
		sp.SetBytes(8)
		sp.End()
		tr.SetPos(1, 2)
		tr.Event(KindEvent, "marker")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(KindCollective, "allreduce")
		sp.End()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer(0, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(KindCollective, "allreduce")
		sp.End()
	}
}

// TestConcurrentDetachedSpans exercises worker goroutines emitting spans
// while the driver runs its scope stack — the -race lock-discipline check.
func TestConcurrentDetachedSpans(t *testing.T) {
	tr := NewTracer(0, 1<<12)
	run := tr.Begin(KindRun, "run")
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := tr.BeginDetached(KindStep, "worker")
				sp.SetBytes(1)
				sp.End()
				_ = tr.Path()
			}
		}()
	}
	// The driver keeps tracing concurrently.
	for i := 0; i < each; i++ {
		sp := tr.Begin(KindStep, "driver")
		sp.End()
	}
	wg.Wait()
	run.End()
	snap := tr.Snapshot()
	// BeginDetached parents under the current scope, which here is the run
	// span or whichever driver span happens to be open at that instant.
	scopes := map[uint64]bool{1: true} // the run span
	for _, s := range snap {
		if s.Name == "driver" {
			scopes[s.ID] = true
		}
	}
	var detached int
	for _, s := range snap {
		if s.Name != "worker" {
			continue
		}
		detached++
		if !scopes[s.Parent] {
			t.Fatalf("detached span parent %d is neither the run span nor a driver span", s.Parent)
		}
	}
	driver := len(scopes) - 1
	if detached != workers*each || driver != each {
		t.Fatalf("recorded %d worker + %d driver spans, want %d + %d", detached, driver, workers*each, each)
	}
}

// TestRegistryGenerationDelta is the regression test for per-generation
// traffic accounting: cumulative counters from a previous supervisor
// generation must not bleed into the next generation's figures.
func TestRegistryGenerationDelta(t *testing.T) {
	counters := map[string]int64{"coll_bytes": 0}
	var mu sync.Mutex
	read := func() map[string]int64 {
		mu.Lock()
		defer mu.Unlock()
		return map[string]int64{"coll_bytes": counters["coll_bytes"]}
	}
	bump := func(n int64) {
		mu.Lock()
		counters["coll_bytes"] += n
		mu.Unlock()
	}

	reg := NewRegistry(0)
	reg.AttachCounters("mpi", read)
	bump(100) // generation-0 traffic
	if d := reg.GenerationDelta("mpi")["coll_bytes"]; d != 100 {
		t.Fatalf("gen-0 delta %d, want 100", d)
	}
	reg.RecordGenerationCounters()

	if gen := reg.BeginGeneration(); gen != 1 {
		t.Fatalf("generation %d, want 1", gen)
	}
	// Without the snapshot-and-delta the killed generation's 100 bytes
	// would reappear here.
	if d := reg.GenerationDelta("mpi")["coll_bytes"]; d != 0 {
		t.Fatalf("fresh generation delta %d, want 0", d)
	}
	bump(40)
	if d := reg.GenerationDelta("mpi")["coll_bytes"]; d != 40 {
		t.Fatalf("gen-1 delta %d, want 40", d)
	}
	reg.RecordGenerationCounters()

	var frozen []float64
	for _, rec := range reg.Records() {
		if rec.Kind == "counters" && rec.Name == "mpi" {
			frozen = append(frozen, rec.Fields["coll_bytes"])
		}
	}
	if len(frozen) != 2 || frozen[0] != 100 || frozen[1] != 40 {
		t.Fatalf("frozen per-generation counters %v, want [100 40]", frozen)
	}
	if reg.GenerationDelta("nosuch") != nil {
		t.Fatal("unknown source returned a delta")
	}
}

func TestRegistryExpvarSnapshot(t *testing.T) {
	reg := NewRegistry(3)
	reg.AttachCounters("mpi", func() map[string]int64 { return map[string]int64{"x": 7} })
	reg.RecordEvent("phase", "phase[0]", map[string]float64{"q": 0.5})
	snap, ok := reg.ExpvarSnapshot().(map[string]any)
	if !ok {
		t.Fatalf("snapshot type %T", reg.ExpvarSnapshot())
	}
	if snap["rank"] != 3 {
		t.Fatalf("rank = %v", snap["rank"])
	}
	if snap["records_total"].(int) != 1 {
		t.Fatalf("records_total = %v", snap["records_total"])
	}
	if c := snap["counters"].(map[string]map[string]int64); c["mpi"]["x"] != 7 {
		t.Fatalf("counters = %v", c)
	}
}

// TestReportCategorization pins the double-counting rules: a collective
// nested inside a categorized step is absorbed by the step, a sibling
// collective counts as collective, and rebuild absorbs its collectives.
func TestReportCategorization(t *testing.T) {
	tr := NewTracer(0, 1<<10)
	run := tr.Begin(KindRun, "run")
	tr.SetPos(0, 0)
	ph := tr.Begin(KindPhase, "phase")

	tr.SetPos(0, 1)
	it := tr.Begin(KindIteration, "iteration")
	fetch := tr.Begin(KindP2P, "community-fetch")
	a2a := tr.Begin(KindCollective, "alltoall") // absorbed by community-fetch
	a2a.End()
	fetch.End()
	sweep := tr.Begin(KindStep, "sweep")
	sweep.End()
	ar := tr.Begin(KindCollective, "allreduce") // sibling: counts as collective
	ar.End()
	it.End()

	rb := tr.Begin(KindStep, "rebuild")
	ex := tr.Begin(KindCollective, "exscan") // absorbed by rebuild
	ex.End()
	rb.End()
	ph.End()
	run.End()

	rep := BuildReport(tr.Snapshot())
	if len(rep.Phases) != 1 {
		t.Fatalf("%d phase rows, want 1", len(rep.Phases))
	}
	pb := rep.Phases[0]
	if pb.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", pb.Iterations)
	}
	fs := func(s string) Span {
		for _, sp := range tr.Snapshot() {
			if sp.Name == s {
				return sp
			}
		}
		t.Fatalf("span %q not recorded", s)
		return Span{}
	}
	if got, want := pb.Cat[CatP2P], time.Duration(fs("community-fetch").Dur); got != want {
		t.Fatalf("p2p = %v, want the community-fetch duration %v", got, want)
	}
	if got, want := pb.Cat[CatCollective], time.Duration(fs("allreduce").Dur); got != want {
		t.Fatalf("collective = %v, want only the sibling allreduce %v (alltoall must be absorbed)", got, want)
	}
	if got, want := pb.Cat[CatCoarsen], time.Duration(fs("rebuild").Dur); got != want {
		t.Fatalf("coarsen = %v, want the rebuild duration %v", got, want)
	}
	if pb.Accounted() > pb.Total {
		t.Fatalf("accounted %v exceeds phase total %v (double counting)", pb.Accounted(), pb.Total)
	}
	if rep.Total <= 0 || rep.Total < pb.Total {
		t.Fatalf("run total %v vs phase total %v", rep.Total, pb.Total)
	}

	var buf strings.Builder
	rep.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "%p2p") || !strings.Contains(out, "%coarsen") {
		t.Fatalf("missing header columns:\n%s", out)
	}
	if !strings.Contains(out, "\n    all") && !strings.Contains(out, " all ") {
		t.Fatalf("missing all row:\n%s", out)
	}
}
