package sched

import (
	"runtime"
	"strconv"
	"sync"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/telemetry"
)

// DefaultMinShardCycles is the smallest owned range a shard is planned
// with: below it, warm-up replay dominates and sequential execution wins.
const DefaultMinShardCycles = 512

// RunConfig configures a parallel run.
type RunConfig struct {
	// Workers caps the number of shard goroutines; <= 0 uses GOMAXPROCS.
	Workers int
	// RecordEvents keeps the full report event list (required when the
	// caller needs matches, not just counts).
	RecordEvents bool
	// Collector, when non-nil, aggregates device telemetry across the
	// workers. Each worker attaches it only after warm-up replay, so the
	// device_kernel_cycles, device_reports and device_report_cycles
	// counters sum to exactly the sequential totals; stall, flush and
	// occupancy instruments reflect per-shard region state and differ from
	// a sequential run by design.
	Collector *telemetry.Collector
	// MinShardCycles overrides DefaultMinShardCycles when > 0.
	MinShardCycles int64
}

// RunResult aggregates a parallel run. Reports, ReportCycles,
// MaxReportsPerCycle, KernelCycles and Events are byte-identical to a
// sequential core.Machine.Run of the same input. StallCycles, Flushes,
// Summaries and PerPU are summed across the worker clones — each worker
// has its own report region filling on the shard's local history (warm-up
// included), so these device-accounting fields are *not* comparable to a
// sequential run cycle for cycle.
type RunResult struct {
	core.Result
	PerPU []core.PUStats

	// Workers is the number of shards actually executed; WarmupCycles the
	// total replay overhead across them; OverlapCycles the per-shard
	// warm-up window (D+1 rounded to the alignment). Sharded is false when
	// the run fell back to sequential execution: an unbounded dependence
	// window (cyclic automaton), a single worker, or an input too small to
	// split profitably.
	Workers       int
	WarmupCycles  int64
	OverlapCycles int64
	Sharded       bool
}

// ParallelRun executes units on clones of proto (the machine configured
// from automaton a) across shard workers and merges the result
// deterministically: events are concatenated in shard order, which is
// cycle order, so the merged stream equals the sequential one exactly.
// proto itself is never stepped — any configured, fault-free machine
// works, concurrent ParallelRun calls on the same proto included.
func ParallelRun(proto *core.Machine, a *automata.UnitAutomaton, units []funcsim.Unit, rc RunConfig) *RunResult {
	cfg := proto.Config()
	rate := cfg.Rate
	units = funcsim.PadUnits(units, rate)
	totalCycles := int64(len(units) / rate)
	workers := rc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	minOwned := rc.MinShardCycles
	if minOwned <= 0 {
		minOwned = DefaultMinShardCycles
	}

	depth, bounded := DependenceCycles(a)
	align := alignmentCycles(rate, a.SymbolUnits)
	overlap := roundUpTo(int64(depth)+1, align)

	// Wall-clock span instrumentation. All clocks live inside the
	// telemetry package (this package is vet-enforced deterministic and
	// cannot import time); with spans disabled every call below is a
	// zero-alloc nil no-op.
	sp := rc.Collector.Spans().Root("parallel_run")
	defer sp.End()

	var shards []Shard
	if bounded && workers > 1 {
		shards = PlanShards(totalCycles, workers, align, overlap, minOwned)
	}
	if len(shards) <= 1 {
		return runSequential(proto, units, rc, sp)
	}
	sp.SetAttr("cycles=" + strconv.FormatInt(totalCycles, 10) +
		" shards=" + strconv.Itoa(len(shards)) +
		" overlap=" + strconv.FormatInt(overlap, 10))

	outs := make([]shardOut, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ss := sp.Child("shard")
			ss.SetAttr("shard=" + strconv.Itoa(i) +
				" warmup=" + strconv.FormatInt(shards[i].WarmupCycles(), 10) +
				" owned=" + strconv.FormatInt(shards[i].EndCycle-shards[i].StartCycle, 10))
			runShard(proto.Clone(), units, shards[i], rc, ss, &outs[i])
			ss.End()
		}(i)
	}
	wg.Wait()

	res := &RunResult{Workers: len(shards), OverlapCycles: overlap, Sharded: true}
	res.merge(outs, rc.RecordEvents)
	return res
}

// merge concatenates the shard outputs' events in shard order, which is
// cycle order, and sums their accounting into res.
func (res *RunResult) merge(outs []shardOut, record bool) {
	nev := 0
	for i := range outs {
		nev += len(outs[i].Events)
	}
	if record {
		res.Events = make([]funcsim.ReportEvent, 0, nev)
	}
	for i := range outs {
		o := &outs[i]
		res.Events = append(res.Events, o.Events...)
		res.KernelCycles += o.KernelCycles
		res.Reports += o.Reports
		res.ReportCycles += o.ReportCycles
		res.MaxReportsPerCycle = max(res.MaxReportsPerCycle, o.MaxReportsPerCycle)
		res.StallCycles += o.StallCycles
		res.Flushes += o.Flushes
		res.Summaries += o.Summaries
		res.WarmupCycles += o.warmup
		if res.PerPU == nil {
			res.PerPU = o.perPU
		} else {
			addPerPU(res.PerPU, o.perPU)
		}
	}
}

// runSequential is the fallback path: one clone, the whole input. Its
// output is trivially identical to core.Machine.Run.
func runSequential(proto *core.Machine, units []funcsim.Unit, rc RunConfig, sp *telemetry.SpanCtx) *RunResult {
	seq := sp.Child("sequential")
	defer seq.End()
	m := proto.Clone()
	if rc.Collector != nil {
		m.AttachTelemetry(rc.Collector)
	}
	r := m.Run(units, core.RunOptions{RecordEvents: rc.RecordEvents})
	return &RunResult{Result: *r, PerPU: m.PerPU(), Workers: 1}
}

// shardOut is one shard's run: its owned cycles' result (KernelCycles
// counts owned cycles only), warm-up length and per-PU breakdown.
type shardOut struct {
	core.Result
	warmup int64
	perPU  []core.PUStats
}

// runShard replays the shard's warm-up prefix silently on m (reset,
// telemetry detached), then runs the owned range into out, so its emission
// rows and events are exactly the sequential run's for those cycles.
// WindowedRun reuses one machine per worker across many windows.
func runShard(m *core.Machine, units []funcsim.Unit, sh Shard, rc RunConfig, sp *telemetry.SpanCtx, out *shardOut) {
	rate := int64(m.Config().Rate)
	// With BaseCycle > 0, local cycle zero is mid-stream: anchored states
	// must stay quiet. When the warm-up clamps to the input start the
	// replay *is* the sequential prefix and start-of-data injection stays
	// live. Set unconditionally — a reused machine may carry either state.
	m.SuppressStartOfData(sh.BaseCycle > 0)
	warm := sp.Child("warmup")
	var scratch []automata.StateID
	for c := sh.BaseCycle; c < sh.StartCycle; c++ {
		scratch = m.Step(units[c*rate:(c+1)*rate], scratch[:0])
	}
	warm.End()

	if rc.Collector != nil {
		// Post-warm-up attach: the shared counters see owned cycles only,
		// so worker sums equal sequential totals (see RunConfig.Collector).
		m.AttachTelemetry(rc.Collector)
	}
	scan := sp.Child("scan")
	defer scan.End()
	m.RunInto(&out.Result, units[sh.StartCycle*rate:sh.EndCycle*rate], core.RunOptions{RecordEvents: rc.RecordEvents})
	// The machine counts cycles from the shard's base; rebase the events
	// onto absolute cycles.
	for i := range out.Events {
		out.Events[i].Cycle += sh.BaseCycle
		out.Events[i].Unit += sh.BaseCycle * rate
	}
	out.KernelCycles = sh.OwnedCycles()
	out.warmup = sh.WarmupCycles()
	out.perPU = m.PerPU()
}

func addPerPU(dst, src []core.PUStats) {
	for i := range dst {
		dst[i].ReportEntries += src[i].ReportEntries
		dst[i].StrideMarkers += src[i].StrideMarkers
		dst[i].Flushes += src[i].Flushes
		dst[i].Summaries += src[i].Summaries
		dst[i].StallCycles += src[i].StallCycles
		if src[i].PeakOccupancy > dst[i].PeakOccupancy {
			dst[i].PeakOccupancy = src[i].PeakOccupancy
		}
		dst[i].Occupancy += src[i].Occupancy
	}
}
