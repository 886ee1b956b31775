package sched

import (
	"testing"

	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/workload"
)

func TestPlanWindowsInvariants(t *testing.T) {
	spans := []CycleSpan{
		{Start: 90, End: 95},
		{Start: 10, End: 20},
		{Start: 22, End: 30},   // gap 2 <= overlap: merges with previous
		{Start: -5, End: 4},    // clamped at 0
		{Start: 200, End: 300}, // clamped to totalCycles
	}
	shards := PlanWindows(spans, 250, 2, 8)
	if len(shards) != 3 {
		t.Fatalf("windows = %+v, want 3", shards)
	}
	prevEnd := int64(0)
	for i, sh := range shards {
		if sh.BaseCycle%2 != 0 || sh.StartCycle%2 != 0 {
			t.Errorf("window %d not aligned: %+v", i, sh)
		}
		if sh.StartCycle < prevEnd && i > 0 {
			t.Errorf("window %d overlaps previous: %+v", i, sh)
		}
		if sh.BaseCycle > sh.StartCycle || sh.StartCycle >= sh.EndCycle {
			t.Errorf("window %d malformed: %+v", i, sh)
		}
		if sh.EndCycle > 250 {
			t.Errorf("window %d exceeds total: %+v", i, sh)
		}
		if w := sh.WarmupCycles(); sh.StartCycle >= 8 && w < 8 {
			t.Errorf("window %d warm-up %d < overlap", i, w)
		}
		prevEnd = sh.EndCycle
	}
	// First merged window must span the three merged inputs.
	if shards[0].StartCycle != 0 || shards[0].EndCycle != 30 {
		t.Errorf("merged head window = %+v", shards[0])
	}
	if PlanWindows(nil, 100, 1, 4) != nil {
		t.Error("no spans must plan no windows")
	}
	if PlanWindows([]CycleSpan{{5, 5}}, 100, 1, 4) != nil {
		t.Error("empty span must plan no windows")
	}
}

// TestWindowedRunFullCoverEqualsSequential: windows covering every cycle
// must reproduce the sequential run event for event (and in this special
// case even KernelCycles equals the total).
func TestWindowedRunFullCoverEqualsSequential(t *testing.T) {
	w, err := workload.Get("ExactMatch", 0.05, 4000)
	if err != nil {
		t.Fatal(err)
	}
	proto, ua := buildTestMachine(t, w, 4)
	units := funcsim.PadUnits(funcsim.BytesToUnits(w.Input, 4), 4)
	total := int64(len(units) / 4)

	seq := proto.Clone().Run(units, core.RunOptions{RecordEvents: true})

	depth, bounded := DependenceCycles(ua)
	if !bounded {
		t.Fatal("ExactMatch must have a bounded dependence window")
	}
	align := Alignment(4, ua.SymbolUnits)
	overlap := Overlap(depth, align)
	for _, workers := range []int{1, 3} {
		shards := PlanWindows([]CycleSpan{{0, total}}, total, align, overlap)
		rr := WindowedRun(proto, units, shards, RunConfig{Workers: workers, RecordEvents: true})
		if rr.Reports != seq.Reports || rr.ReportCycles != seq.ReportCycles {
			t.Fatalf("workers=%d: reports %d/%d, want %d/%d",
				workers, rr.Reports, rr.ReportCycles, seq.Reports, seq.ReportCycles)
		}
		if rr.KernelCycles != total {
			t.Fatalf("workers=%d: kernel cycles %d, want %d", workers, rr.KernelCycles, total)
		}
		diffEvents(t, "full-cover", rr.Events, seq.Events)
	}
}

// TestWindowedRunSparseWindows: windows planned only around the sequential
// run's actual report cycles must reproduce the full event stream while
// executing a fraction of the input.
func TestWindowedRunSparseWindows(t *testing.T) {
	w, err := workload.Get("ExactMatch", 0.05, 8000)
	if err != nil {
		t.Fatal(err)
	}
	proto, ua := buildTestMachine(t, w, 4)
	units := funcsim.PadUnits(funcsim.BytesToUnits(w.Input, 4), 4)
	total := int64(len(units) / 4)

	seq := proto.Clone().Run(units, core.RunOptions{RecordEvents: true})
	if len(seq.Events) == 0 {
		t.Skip("workload produced no events at this scale")
	}

	depth, _ := DependenceCycles(ua)
	align := Alignment(4, ua.SymbolUnits)
	overlap := Overlap(depth, align)
	var spans []CycleSpan
	for _, ev := range seq.Events {
		spans = append(spans, CycleSpan{Start: ev.Cycle, End: ev.Cycle + 1})
	}
	shards := PlanWindows(spans, total, align, overlap)
	rr := WindowedRun(proto, units, shards, RunConfig{Workers: 4, RecordEvents: true})
	if rr.Reports != seq.Reports || rr.ReportCycles != seq.ReportCycles {
		t.Fatalf("reports %d/%d, want %d/%d", rr.Reports, rr.ReportCycles, seq.Reports, seq.ReportCycles)
	}
	diffEvents(t, "sparse", rr.Events, seq.Events)
	if rr.KernelCycles >= total {
		t.Fatalf("sparse windows executed %d of %d cycles — nothing skipped", rr.KernelCycles, total)
	}
}
