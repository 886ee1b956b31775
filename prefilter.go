package sunder

import (
	"fmt"

	"sunder/internal/funcsim"
	"sunder/internal/prefilter"
	"sunder/internal/regex"
	"sunder/internal/sched"
	"sunder/internal/telemetry"
)

// PrefilterMode selects the literal-prefilter fast path. The zero value is
// off: existing configurations keep their exact behaviour, including
// cycle-for-cycle identical Stats.
type PrefilterMode int

const (
	// PrefilterOff disables prefiltering (the default).
	PrefilterOff PrefilterMode = iota
	// PrefilterOn extracts required literals from the rule set at compile
	// time and scans input for them before driving the simulated device;
	// regions with no literal occurrence are skipped entirely. Matches,
	// Reports and ReportCycles stay byte-identical to an unfiltered scan;
	// Stats.KernelCycles drops to the executed windows, with the remainder
	// accounted in Stats.SkippedCycles. Rule sets without usable literals
	// take a conservative no-filter verdict and scan unfiltered.
	PrefilterOn
)

// Prefilter telemetry counter names, populated on engines with an
// attached Telemetry when the prefilter is active: filtered scans run,
// literal occurrences found, candidate windows executed, and the split of
// device cycles into scanned (executed) and skipped. Exported so servers
// and tools can read them back via Telemetry.CounterValue.
const (
	MetricPrefilterScans         = "prefilter_scans"
	MetricPrefilterHits          = "prefilter_hits"
	MetricPrefilterWindows       = "prefilter_windows"
	MetricPrefilterScannedCycles = "prefilter_scanned_cycles"
	MetricPrefilterSkippedCycles = "prefilter_skipped_cycles"
)

// notePrefilter records one filtered scan's outcome. With telemetry
// detached (nil collector) it is a single branch and zero allocations.
func notePrefilter(col *telemetry.Collector, hits, windows, scanned, skipped int64) {
	if col == nil {
		return
	}
	col.Counter(MetricPrefilterScans).Inc()
	col.Counter(MetricPrefilterHits).Add(hits)
	col.Counter(MetricPrefilterWindows).Add(windows)
	col.Counter(MetricPrefilterScannedCycles).Add(scanned)
	col.Counter(MetricPrefilterSkippedCycles).Add(skipped)
}

// prefilterPlan is the compile-time product of literal extraction: the
// literal set, the scanner chosen for it, and the window geometry derived
// from the automaton's dependence window. It is immutable after compile
// (the scanner is read-only), so cached artifacts and engine clones share
// one plan.
type prefilterPlan struct {
	lits     [][]byte
	scanner  prefilter.Scanner // nil when the verdict is "no filter"
	strategy string
	reason   string // why the filter disabled itself (scanner == nil)
	// fold marks a canonical case-folded literal set: the scanner matches
	// any ASCII case variant, and tail-hazard checks fold too.
	fold bool

	maxLit int // longest literal, for cross-chunk carry in streams
	rate   int // units per cycle
	su     int // units per byte

	bounded bool // false: cyclic automaton, windows cannot bound warm-up
	align   int64
	overlap int64
	// maxMatchBytes bounds a match's byte length when bounded; a literal
	// occurrence [q, e) therefore confines the report to the cycles of
	// bytes [e-1, q+maxMatchBytes).
	maxMatchBytes int64
}

func (p *prefilterPlan) enabled() bool { return p != nil && p.scanner != nil }

// newPrefilterPlan finishes an extraction into an executable plan for the
// artifact's geometry and dependence window (buildBackendShape's).
func (a *artifact) newPrefilterPlan(ex prefilter.Extraction) *prefilterPlan {
	p := &prefilterPlan{rate: a.nibble.Rate, su: a.nibble.SymbolUnits}
	if !ex.OK {
		p.strategy = "off"
		p.reason = ex.Reason
		return p
	}
	p.lits = ex.Literals
	p.fold = ex.FoldCase
	p.scanner = prefilter.NewScannerFold(ex.Literals, ex.FoldCase)
	p.strategy = p.scanner.Strategy()
	if p.fold {
		p.strategy += "+fold"
	}
	p.maxLit = ex.MaxLen
	depth := a.metaIn.DependenceWindow
	p.bounded = a.metaIn.Bounded
	p.align = sched.Alignment(p.rate, p.su)
	p.overlap = sched.Overlap(depth, p.align)
	if p.bounded {
		p.maxMatchBytes = (int64(depth)+1)*int64(p.rate)/int64(p.su) + 2
	}
	return p
}

// buildPrefilter attaches a plan to the artifact when Options.Prefilter is
// on; it runs after buildBackendShape. When the rule set came from regex patterns the AST extractor runs
// first and wins if it engages — concatenation islands typically beat
// automaton suffix walks on patterns with wide-class tails; otherwise the
// automaton extractor, which handles any rule set (ANML included), decides.
func buildPrefilter(a *artifact, patterns []Pattern) {
	if a.opts.Prefilter != PrefilterOn {
		return
	}
	if len(patterns) > 0 {
		if lits, fold, ok := requiredPatternLiterals(patterns); ok {
			if pl := a.newPrefilterPlan(prefilter.FromLiteralsFold(lits, fold, prefilter.DefaultConfig())); pl.enabled() {
				a.pre = pl
				return
			}
		}
	}
	a.pre = a.newPrefilterPlan(prefilter.Extract(a.byteNFA, prefilter.DefaultConfig()))
}

// requiredPatternLiterals unions the per-pattern AST literal sets; every
// pattern must yield one for the union to be a required set of the whole
// rule set (any match is a match of some pattern). If any pattern's set is
// case-folded the whole union is folded to canonical form: a fold-aware
// scan of exact literals over-approximates their occurrences, which is
// sound (extra candidate windows, never missed ones).
func requiredPatternLiterals(patterns []Pattern) ([][]byte, bool, bool) {
	var all [][]byte
	fold := false
	for _, p := range patterns {
		lits, f, ok := regex.RequiredLiteralsFold(p.Expr)
		if !ok {
			return nil, false, false
		}
		fold = fold || f
		all = append(all, lits...)
	}
	return all, fold, true
}

// hitSpan converts a literal occurrence at bytes [q, e) into the cycle
// range where a match containing it can report: no earlier than the cycle
// of byte e-1 (the match ends at or after the occurrence) and, when the
// dependence window is bounded, no later than the cycle of byte
// q+maxMatchBytes. One slack cycle on each side absorbs unit/cycle
// boundary effects.
func (p *prefilterPlan) hitSpan(q, e int) sched.CycleSpan {
	start := int64(e-1)*int64(p.su)/int64(p.rate) - 1
	end := (int64(q)+p.maxMatchBytes)*int64(p.su)/int64(p.rate) + 2
	return sched.CycleSpan{Start: start, End: end}
}

// planSpans scans input for literal occurrences and returns candidate
// cycle spans plus the hit count. When the padded tail can complete a
// literal (see prefilter.TailHit), the final cycle is appended as a span:
// phantom pad reports fire there in an unfiltered run and the filtered
// Stats must count them identically.
func (p *prefilterPlan) planSpans(input []byte, totalCycles int64, padUnits int) (spans []sched.CycleSpan, hits int64) {
	p.scanner.Scan(input, func(q, e int) {
		hits++
		spans = append(spans, p.hitSpan(q, e))
	})
	if padUnits > 0 {
		padBytes := (padUnits + p.su - 1) / p.su
		if prefilter.TailHitFold(input, p.lits, padBytes, p.fold) {
			spans = append(spans, sched.CycleSpan{Start: totalCycles - 1, End: totalCycles})
		}
	}
	return spans, hits
}

// scanPrefiltered is the filtered batch scan: literal scan, window
// planning, windowed execution on clones of the pristine compile artifact.
// It never touches the engine's shared machine, so it serves Scan,
// ScanParallel and ScanBatch alike.
func (e *Engine) scanPrefiltered(input []byte, workers int) *ScanResult {
	a := e.art
	p := a.pre
	units := funcsim.BytesToUnits(input, 4)
	padded := funcsim.PadUnits(units, p.rate)
	totalCycles := int64(len(padded) / p.rate)
	col := e.telemetryCollector()

	spans, hits := p.planSpans(input, totalCycles, len(padded)-len(units))

	if len(spans) == 0 {
		// No literal anywhere: the rule set cannot match, and no phantom
		// pad report can fire. Skip the entire input.
		notePrefilter(col, hits, 0, 0, totalCycles)
		return &ScanResult{Stats: Stats{SkippedCycles: totalCycles}, PerPU: a.idlePerPU()}
	}

	rc := sched.RunConfig{Workers: workers, RecordEvents: true, Collector: col}
	var rr *sched.RunResult
	windows := int64(1)
	if p.bounded {
		shards := sched.PlanWindows(spans, totalCycles, p.align, p.overlap)
		rr = sched.WindowedRun(a.proto, padded, shards, rc)
		windows = int64(len(shards))
	} else {
		// Cyclic automaton: windows cannot bound warm-up replay, so a hit
		// anywhere forces a full run. The filter still wins on hit-free
		// inputs (handled above).
		rr = sched.ParallelRun(a.proto, a.nibble, units, rc)
	}
	skipped := totalCycles - rr.KernelCycles
	notePrefilter(col, hits, windows, rr.KernelCycles, skipped)
	out := a.result(&rr.Result, len(input), toPUStats(rr.PerPU))
	out.Stats.PrefilterWindows, out.Stats.SkippedCycles = windows, skipped
	return out
}

// describe returns the compiled prefilter's strategy and literals for
// Info: "off", or "off (<reason>)" when the filter disabled itself.
func (p *prefilterPlan) describe() (strategy string, literals []string) {
	if p == nil {
		return "off", nil
	}
	if p.scanner == nil {
		if p.reason != "" {
			return fmt.Sprintf("off (%s)", p.reason), nil
		}
		return "off", nil
	}
	literals = make([]string, len(p.lits))
	for i, l := range p.lits {
		literals[i] = string(l)
	}
	return p.strategy, literals
}
