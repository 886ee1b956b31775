package sunder

import (
	"fmt"

	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/dfa"
	"sunder/internal/meta"
	"sunder/internal/sched"
)

// resolveBackend validates Options.Backend and resolves the engine's scan
// backend. It runs at the end of compilation, after the prefilter plan is
// final (an engaged prefilter owns scans, so "auto" must see it), and is
// pure: re-running it on the same engine yields the same choice.
//
// Dispatch precedence at scan time is fixed regardless of the resolved
// backend: an armed fault policy always takes the guarded sequential path
// (the recovery protocol is machine-level), and an engaged literal
// prefilter owns the scan next (its windowed execution already replays on
// NFA clones). The backend selects the substrate for everything else.
func resolveBackend(e *Engine) error {
	in := e.metaIn
	in.PrefilterEngaged = e.pre.enabled()
	e.metaIn = in
	e.autoChoice = meta.Select(in)
	switch e.opts.Backend {
	case "", meta.BackendNFA:
		e.backend, e.backendNote = meta.BackendNFA, meta.BackendNFA
	case meta.BackendAuto:
		e.backend = e.autoChoice.Backend
		e.backendNote = e.autoChoice.String()
	case meta.BackendDFA:
		if e.dfaPlan == nil {
			return fmt.Errorf("sunder: Backend %q unsupported for this configuration: %s", meta.BackendDFA, e.metaIn.DFAReason)
		}
		e.backend, e.backendNote = meta.BackendDFA, meta.BackendDFA
	case meta.BackendParallel:
		e.backend, e.backendNote = meta.BackendParallel, meta.BackendParallel
	default:
		return fmt.Errorf("sunder: unknown Backend %q (want \"auto\", \"nfa\", \"dfa\" or \"parallel\")", e.opts.Backend)
	}
	return nil
}

// buildBackendShape computes the shape statistics backend selection
// consumes and, when the lazy DFA supports the compiled geometry, its
// stepping plan under the certified symbol-class partition of the byte
// automaton.
func buildBackendShape(e *Engine) error {
	supported, reason := dfa.Supported(e.nibble)
	classes := 0
	if supported {
		sc := analysis.SymbolClasses(e.byteNFA)
		if err := analysis.CheckSymbolClasses(e.byteNFA, sc); err != nil {
			return fmt.Errorf("sunder: symbol-class certificate rejected: %w", err)
		}
		classes = sc.Count()
		plan, err := dfa.NewPlan(e.nibble, sc.Class, classes)
		if err != nil {
			return err
		}
		e.dfaPlan = plan
	}
	depth, bounded := sched.DependenceCycles(e.nibble)
	e.metaIn = meta.Inputs{
		ByteStates:       e.byteNFA.NumStates(),
		DeviceStates:     e.nibble.NumStates(),
		ReportStates:     e.nibble.NumReportStates(),
		Rate:             e.nibble.Rate,
		SymbolUnits:      e.nibble.SymbolUnits,
		DependenceWindow: depth,
		Bounded:          bounded,
		SymbolClasses:    classes,
		DFASupported:     supported,
		DFAReason:        reason,
	}
	return nil
}

// effectiveBackend resolves a per-call ScanOptions.Backend override
// against the engine's compiled choice.
func (e *Engine) effectiveBackend(override string) (string, error) {
	if override == "" {
		return e.backend, nil
	}
	if !meta.Known(override) {
		return "", fmt.Errorf("sunder: unknown Backend %q (want \"auto\", \"nfa\", \"dfa\" or \"parallel\")", override)
	}
	if override == meta.BackendAuto {
		return e.autoChoice.Backend, nil
	}
	if override == meta.BackendDFA && e.dfaPlan == nil {
		return "", fmt.Errorf("sunder: Backend %q unsupported for this configuration: %s", meta.BackendDFA, e.metaIn.DFAReason)
	}
	return override, nil
}

// dfaRunnerFor returns the engine's persistent sequential runner, building
// it on first use. Like the shared machine, it belongs to the sequential
// entry points (Scan, NewStream) — the parallel paths build their own.
func (e *Engine) dfaRunnerFor() *dfa.Runner {
	if e.dfaRunner == nil {
		e.dfaRunner = dfa.NewRunner(e.dfaPlan, dfa.DefaultConfig())
	}
	return e.dfaRunner
}

// scanDFA is the sequential lazy-DFA scan on the engine's persistent
// runner (its state cache stays hot across scans).
func (e *Engine) scanDFA(input []byte) *ScanResult {
	return e.scanDFAWith(e.dfaRunnerFor(), input)
}

// scanDFAFresh runs on a throwaway runner; the parallel entry points use
// it so they never touch sequential-path state.
func (e *Engine) scanDFAFresh(input []byte) *ScanResult {
	return e.scanDFAWith(dfa.NewRunner(e.dfaPlan, dfa.DefaultConfig()), input)
}

// scanDFAWith executes input cycle by cycle on the lazy DFA, reproducing
// the device's Reports/ReportCycles accounting exactly: each cycle's
// emission row is already deduplicated by (offset, origin), and reports
// ending in the pad tail still count but are not matches. Matches come out
// in ascending (Position, Code) order whatever the runner's cache history.
// KernelCycles equals the device's padded cycle count; StallCycles,
// Flushes and the PerPU breakdown are artifacts of the simulated report
// region and are reported as zero — the same documented divergence as
// ScanParallel's clone-local stall accounting.
func (e *Engine) scanDFAWith(r *dfa.Runner, input []byte) *ScanResult {
	r.Reset()
	sb := e.dfaPlan.StepBytes()
	n := int64(len(input))
	cycles := (len(input) + sb - 1) / sb
	out := &ScanResult{PerPU: make([]PUStats, e.proto.NumPUs())}
	for i := range out.PerPU {
		out.PerPU[i].PU = i
	}
	var ms matchChunks
	for c := 0; c < cycles; c++ {
		start := c * sb
		end := start + sb
		pad := 0
		if end > len(input) {
			pad = end - len(input)
			end = len(input)
		}
		row := r.Step(input[start:end], pad)
		if len(row) == 0 {
			continue
		}
		out.Stats.Reports += int64(len(row))
		out.Stats.ReportCycles++
		if pad > 0 {
			// Phantoms: reports "ending" in the pad tail still count in
			// Reports (the device writes the entry) but are not matches.
			// Rows ascend by position, so they are the row's suffix.
			keep := 0
			for keep < len(row) && int64(start)+dfa.ReportByte(row[keep]) < n {
				keep++
			}
			row = row[:keep]
		}
		ms.addRow(int64(start), row)
	}
	out.Matches = ms.flatten()
	out.Stats.KernelCycles = int64(cycles)
	return out
}

// matchChunks collects matches into doubling chunks, so a scan with
// millions of matches never re-copies a growing slice; flatten then copies
// them once into an exactly sized slice. Allocations grow with the log of
// the match count, and nothing outlives the call that owns the collector.
type matchChunks struct {
	// full holds the filled chunks; 40 doublings from 256 matches exceed
	// any address space, so it never grows.
	full  [40][]Match
	nfull int
	cur   []Match
	n     int
}

// addRow appends the matches of one emission row whose cycle starts at
// input byte start.
func (b *matchChunks) addRow(start int64, row []automata.Report) {
	if cap(b.cur)-len(b.cur) < len(row) {
		b.grow(len(row))
	}
	i := len(b.cur)
	b.cur = b.cur[:i+len(row)]
	dst := b.cur[i:]
	for j, rep := range row {
		dst[j] = Match{Position: start + dfa.ReportByte(rep), Code: rep.Code}
	}
}

// grow retires the current chunk and starts one with room for at least
// need more matches.
func (b *matchChunks) grow(need int) {
	size := 256
	if c := cap(b.cur); c > 0 {
		b.full[b.nfull] = b.cur
		b.nfull++
		b.n += len(b.cur)
		size = 2 * c
	}
	b.cur = make([]Match, 0, max(size, need))
}

// flatten returns every collected match in order, nil when there are none.
func (b *matchChunks) flatten() []Match {
	if b.n+len(b.cur) == 0 {
		return nil
	}
	out := make([]Match, 0, b.n+len(b.cur))
	for _, c := range b.full[:b.nfull] {
		out = append(out, c...)
	}
	return append(out, b.cur...)
}

// DFAStats reports the lazy-DFA backend's cache behaviour on this engine's
// sequential runner (zero until the first DFA scan). Like Scan, it reads
// sequential-path state and must not race a concurrent sequential scan.
type DFAStats struct {
	// Supported reports whether the compiled geometry admits the lazy DFA
	// (Reason says why not).
	Supported bool
	Reason    string
	// States is the number of DFA states constructed; Hits/Misses count
	// cached-transition lookups; Evictions counts LRU evictions;
	// Fallbacks counts runs that abandoned caching for direct NFA
	// stepping after the cache thrashed.
	States    int64
	Hits      int64
	Misses    int64
	Evictions int64
	Fallbacks int64
}

// DFAStats returns the engine's lazy-DFA cache counters.
func (e *Engine) DFAStats() DFAStats {
	out := DFAStats{Supported: e.dfaPlan != nil, Reason: e.metaIn.DFAReason}
	if e.dfaRunner != nil {
		s := e.dfaRunner.Stats()
		out.States, out.Hits, out.Misses = s.States, s.Hits, s.Misses
		out.Evictions, out.Fallbacks = s.Evictions, s.Fallbacks
	}
	return out
}

// Backend returns the engine's resolved scan backend ("nfa", "dfa" or
// "parallel"), annotated with the auto-selection reason when
// Options.Backend was "auto".
func (e *Engine) Backend() string { return e.backendNote }
