package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"

	"sunder"
	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/dfa"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/prefilter"
	"sunder/internal/regex"
	"sunder/internal/sched"
	"sunder/internal/transform"
)

// compiled is what the traced compile replay builds: the device automaton,
// its configured machine and report budget, and the lazy-DFA plan (nil when
// the geometry does not support one).
type compiled struct {
	ua     *automata.UnitAutomaton
	m      *core.Machine
	budget int
	plan   *dfa.Plan
}

// replayCompile replays the engine's compile sequence stage by stage
// through each layer's public functions, one span per stage under a
// "compile" root. Pass patterns for a regex rule set, or nfa for an
// automaton rule set. The prefilter extraction stage runs only when opts
// turns the prefilter on, as in the engine.
func replayCompile(tr *tracer, op int64, patterns []sunder.Pattern, nfa *automata.Automaton, opts sunder.Options) (*compiled, error) {
	root := tr.begin("compile", 0, op)
	defer tr.end(root)
	var err error
	if patterns != nil {
		ps := regexPatterns(patterns)
		tr.timed("regex.CompileSet", root, op, func() { nfa, err = regex.CompileSet(ps) })
		if err != nil {
			return nil, err
		}
	}
	c := &compiled{}
	tr.timed("transform.ToRate", root, op, func() { c.ua, err = transform.ToRate(nfa, opts.Rate) })
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(opts.Rate)
	cfg.ReportColumns = opts.ReportColumns
	cfg.MetadataBits = opts.MetadataBits
	cfg.FIFO = opts.FIFO
	cfg.SummarizeOnFull = opts.SummarizeOnFull
	var place *mapping.Placement
	tr.timed("mapping.Place", root, op, func() {
		if c.budget, err = mapping.AutoReportColumns(c.ua, cfg.ReportColumns); err == nil {
			place, err = mapping.Place(c.ua, c.budget)
		}
	})
	if err != nil {
		return nil, err
	}
	cfg.ReportColumns = c.budget
	tr.timed("core.Configure", root, op, func() { c.m, err = core.Configure(c.ua, place, cfg) })
	if err != nil {
		return nil, err
	}
	if ok, _ := dfa.Supported(c.ua); ok {
		sc := analysis.SymbolClasses(nfa)
		tr.timed("dfa.NewPlan", root, op, func() { c.plan, err = dfa.NewPlan(c.ua, sc.Class, sc.Count()) })
		if err != nil {
			return nil, err
		}
	}
	if opts.Prefilter == sunder.PrefilterOn {
		tr.timed("prefilter.Extract", root, op, func() { prefilter.Extract(nfa, prefilter.DefaultConfig()) })
	}
	return c, nil
}

func regexPatterns(rules []sunder.Pattern) []regex.Pattern {
	ps := make([]regex.Pattern, len(rules))
	for i, p := range rules {
		ps[i] = regex.Pattern{Expr: p.Expr, Code: p.Code}
	}
	return ps
}

// matchesInfo checks that the replay reproduced the compiled shape an
// engine reports in its Info.
func (c *compiled) matchesInfo(deviceStates, pus, reportColumns int) error {
	if c.ua.NumStates() != deviceStates || c.m.NumPUs() != pus || c.budget != reportColumns {
		return fmt.Errorf("compile replay built %d device states, %d PUs, %d report columns; engine has %d, %d, %d",
			c.ua.NumStates(), c.m.NumPUs(), c.budget, deviceStates, pus, reportColumns)
	}
	return nil
}

// compileValues reports the compile-stage medians and shape counts.
func compileValues(tr *tracer, c *compiled, v map[string]float64) {
	v["regex.compile_s"] = tr.medianSeconds("regex.CompileSet")
	v["transform.to_rate_s"] = tr.medianSeconds("transform.ToRate")
	v["mapping.place_s"] = tr.medianSeconds("mapping.Place")
	v["core.configure_s"] = tr.medianSeconds("core.Configure")
	v["dfa.plan_s"] = tr.medianSeconds("dfa.NewPlan")
	v["prefilter.extract_s"] = tr.medianSeconds("prefilter.Extract")
	v["transform.device_states"] = float64(c.ua.NumStates())
	v["mapping.pus"] = float64(c.m.NumPUs())
}

// coreTotals accumulates core replays. The simulated counts cover one pass
// over the workload's distinct inputs; they are functions of the rule set
// and inputs alone and must repeat exactly from run to run. timedCycles
// counts the cycles of every timed run, for the per-cycle cost.
type coreTotals struct {
	kernel, stall, flushes, reportCycles int64
	timedCycles                          int64
}

// replayCore converts input to units and runs it on the replay's machine,
// each call in its own span, adding the simulated counts to tot when
// firstPass is set. It returns the run's report counts for the reference
// check.
func replayCore(tr *tracer, parent, op int64, c *compiled, input []byte, tot *coreTotals, firstPass bool) counts {
	var units []funcsim.Unit
	tr.timed("funcsim.BytesToUnits", parent, op, func() { units = funcsim.BytesToUnits(input, 4) })
	c.m.Reset()
	var res *core.Result
	tr.timed("core.Machine.Run", parent, op, func() { res = c.m.Run(units, core.RunOptions{RecordEvents: true}) })
	tot.timedCycles += res.KernelCycles
	if firstPass {
		tot.kernel += res.KernelCycles
		tot.stall += res.StallCycles
		tot.flushes += res.Flushes
		tot.reportCycles += res.ReportCycles
	}
	return counts{res.Reports, res.ReportCycles, res.KernelCycles}
}

// replayDFAStep steps input through r cycle by cycle without emitting
// matches: the lazy DFA's transition cost alone.
func replayDFAStep(tr *tracer, parent, op int64, r *dfa.Runner, input []byte) {
	sb := r.Plan().StepBytes()
	id := tr.begin("dfa.Runner.Step", parent, op)
	r.Reset()
	for start := 0; start < len(input); start += sb {
		end := min(start+sb, len(input))
		r.Step(input[start:end], start+sb-end)
	}
	tr.end(id)
}

func coreValues(tr *tracer, tot coreTotals, v map[string]float64) {
	v["funcsim.to_units_s"] = tr.medianSeconds("funcsim.BytesToUnits")
	run := tr.seconds("core.Machine.Run")
	v["core.run_s"] = median(run)
	v["core.ns_per_cycle"] = ratio(sum(run)*1e9, float64(tot.timedCycles))
	v["core.kernel_cycles"] = float64(tot.kernel)
	v["core.stall_cycles"] = float64(tot.stall)
	v["core.flushes"] = float64(tot.flushes)
	v["core.report_cycles"] = float64(tot.reportCycles)
}

// usefulWindows replans the prefilter's candidate windows from the literal
// hits [q, e) with the public scheduler functions and returns how many
// there are and how many own a cycle in which the reference reports.
// Returns (0, 0) when the automaton's dependence window is unbounded (the
// engine then runs the whole input as one window).
func usefulWindows(ua *automata.UnitAutomaton, hits [][2]int, ref *reference, totalCycles int64, stepBytes int) (windows, useful int) {
	depth, bounded := sched.DependenceCycles(ua)
	if !bounded {
		return 0, 0
	}
	rate, su := int64(ua.Rate), int64(ua.SymbolUnits)
	maxMatch := (int64(depth)+1)*rate/su + 2
	spans := make([]sched.CycleSpan, len(hits))
	for i, h := range hits {
		spans[i] = sched.CycleSpan{
			Start: int64(h[1]-1)*su/rate - 1,
			End:   (int64(h[0])+maxMatch)*su/rate + 2,
		}
	}
	align := sched.Alignment(ua.Rate, ua.SymbolUnits)
	shards := sched.PlanWindows(spans, totalCycles, align, sched.Overlap(depth, align))
	// Reference keys are sorted by position, so their cycles ascend.
	j := 0
	for _, sh := range shards {
		for j < len(ref.sorted) && int64(ref.sorted[j]>>32)/int64(stepBytes) < sh.StartCycle {
			j++
		}
		if j < len(ref.sorted) && int64(ref.sorted[j]>>32)/int64(stepBytes) < sh.EndCycle {
			useful++
		}
	}
	return len(shards), useful
}

// dfaValues reports the engine's lazy-DFA cache counters.
func dfaValues(eng *sunder.Engine, v map[string]float64) {
	s := eng.DFAStats()
	v["dfa.states"] = float64(s.States)
	v["dfa.hit_ratio"] = ratio(float64(s.Hits), float64(s.Hits+s.Misses))
	v["dfa.evictions"] = float64(s.Evictions)
	v["dfa.fallbacks"] = float64(s.Fallbacks)
}

// backendIs reports whether the engine resolved to the named backend.
func backendIs(info sunder.Info, name string) bool {
	return strings.HasPrefix(info.Backend, name)
}

// allocMeter reads the process's cumulative heap allocation counters
// without stopping the world.
type allocMeter struct{ s [2]metrics.Sample }

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	m.s[0].Name = "/gc/heap/allocs:bytes"
	m.s[1].Name = "/gc/heap/allocs:objects"
	return m
}

func (m *allocMeter) read() (bytes, objects float64) {
	metrics.Read(m.s[:])
	return float64(m.s[0].Value.Uint64()), float64(m.s[1].Value.Uint64())
}

// gcSnapshot holds the runtime's cumulative GC counters.
type gcSnapshot struct {
	cycles        uint32
	pauseNS       uint64
	gcCPU, allCPU float64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSnapshot{ms.NumGC, ms.PauseTotalNs, s[0].Value.Float64(), s[1].Value.Float64()}
}

// gcValues reports GC activity between two snapshots.
func gcValues(a, b gcSnapshot, v map[string]float64) {
	v["gc.cycles"] = float64(b.cycles - a.cycles)
	v["gc.pause_s"] = float64(b.pauseNS-a.pauseNS) / 1e9
	v["gc.cpu_share"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
}

// liveHeap collects garbage and returns the bytes still live.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
