package sunder

import (
	"fmt"

	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/dfa"
	"sunder/internal/meta"
	"sunder/internal/sched"
)

// resolveBackend validates Options.Backend and resolves the artifact's
// scan backend. It runs last in compilation, after the prefilter plan is
// final: an engaged prefilter owns scans, so "auto" must see it.
//
// Dispatch precedence at scan time is fixed regardless of the resolved
// backend (see Engine.route): an armed fault policy always takes the
// guarded sequential path (the recovery protocol is machine-level), and an
// engaged literal prefilter owns the scan next (its windowed execution
// already replays on NFA clones). The backend selects the substrate for
// everything else.
func resolveBackend(a *artifact) error {
	a.metaIn.PrefilterEngaged = a.pre.enabled()
	a.autoChoice = meta.Select(a.metaIn)
	a.backend = meta.BackendNFA
	backend, err := a.effectiveBackend(a.opts.Backend)
	if err != nil {
		return err
	}
	a.backend, a.backendNote = backend, backend
	if a.opts.Backend == meta.BackendAuto {
		a.backendNote = a.autoChoice.String()
	}
	return nil
}

// buildBackendShape computes the shape statistics backend selection
// consumes and, when the lazy DFA supports the compiled geometry, its
// stepping plan under the certified symbol-class partition of the byte
// automaton. That partition is computed and certificate-checked here once,
// also for Options.Minimize, which reports its class count.
func buildBackendShape(a *artifact) error {
	supported, reason := dfa.Supported(a.nibble)
	classes := 0
	if supported || a.opts.Minimize {
		sc := analysis.SymbolClasses(a.byteNFA)
		if err := analysis.CheckSymbolClasses(a.byteNFA, sc); err != nil {
			return fmt.Errorf("sunder: symbol-class certificate rejected: %w", err)
		}
		if a.opts.Minimize {
			a.symClasses = sc.Count()
		}
		if supported {
			classes = sc.Count()
			plan, err := dfa.NewPlan(a.nibble, sc.Class, classes)
			if err != nil {
				return err
			}
			a.dfaPlan = plan
		}
	}
	depth, bounded := sched.DependenceCycles(a.nibble)
	a.metaIn = meta.Inputs{
		ByteStates:       a.byteNFA.NumStates(),
		DeviceStates:     a.nibble.NumStates(),
		ReportStates:     a.nibble.NumReportStates(),
		Rate:             a.nibble.Rate,
		SymbolUnits:      a.nibble.SymbolUnits,
		DependenceWindow: depth,
		Bounded:          bounded,
		SymbolClasses:    classes,
		DFASupported:     supported,
		DFAReason:        reason,
	}
	return nil
}

// effectiveBackend resolves a per-call ScanOptions.Backend override
// against the compiled choice (during compilation, the "nfa" default).
func (a *artifact) effectiveBackend(override string) (string, error) {
	switch {
	case override == "":
		return a.backend, nil
	case !meta.Known(override):
		return "", fmt.Errorf("sunder: unknown Backend %q (want \"auto\", \"nfa\", \"dfa\" or \"parallel\")", override)
	case override == meta.BackendAuto:
		return a.autoChoice.Backend, nil
	case override == meta.BackendDFA && a.dfaPlan == nil:
		return "", fmt.Errorf("sunder: Backend %q unsupported for this configuration: %s", meta.BackendDFA, a.metaIn.DFAReason)
	}
	return override, nil
}

// scanDFA executes input cycle by cycle on the lazy-DFA runner r,
// reproducing the device's Reports/ReportCycles accounting exactly.
// KernelCycles equals the device's padded cycle count; StallCycles,
// Flushes and the PerPU breakdown are artifacts of the simulated report
// region and are reported as zero — the same documented divergence as
// ScanParallel's clone-local stall accounting.
func (a *artifact) scanDFA(r *dfa.Runner, input []byte) *ScanResult {
	r.Reset()
	sb := a.dfaPlan.StepBytes()
	cycles := (len(input) + sb - 1) / sb
	rows := rowMatches{a: a, n: int64(len(input))}
	for c := 0; c < cycles; c++ {
		start, end := c*sb, min((c+1)*sb, len(input))
		rows.add(int64(c), r.Step(input[start:end], start+sb-end))
	}
	out := rows.result()
	out.Stats.KernelCycles = int64(cycles)
	out.PerPU = a.idlePerPU()
	return out
}

// rowMatches assembles the emission rows of substrates that hand them out
// per cycle — the lazy DFA and the fault guard — into a scan result. It
// collects matches into doubling chunks, so a scan with millions of
// matches never re-copies a growing slice; result then copies them once
// into an exactly sized slice. Allocations grow with the log of the match
// count, and nothing outlives the call that owns the collector.
type rowMatches struct {
	a *artifact
	// n is the input length: reports ending at or past byte n are pad-tail
	// phantoms, counted in Reports but not matches.
	n     int64
	stats Stats
	// full holds the filled chunks; 40 doublings from 256 matches exceed
	// any address space, so it never grows.
	full  [40][]Match
	nfull int
	cur   []Match
	count int
}

// add accounts one cycle's emission row (empty when nothing reported) and
// appends its matches. Rows ascend by position, so phantoms are a row's
// suffix.
func (b *rowMatches) add(cycle int64, row []automata.Report) {
	if len(row) == 0 {
		return
	}
	b.stats.Reports += int64(len(row))
	b.stats.ReportCycles++
	base := cycle * b.a.cycleUnits
	for len(row) > 0 && bytePos(base+int64(row[len(row)-1].Offset)) >= b.n {
		row = row[:len(row)-1]
	}
	if cap(b.cur)-len(b.cur) < len(row) {
		b.grow(len(row))
	}
	i := len(b.cur)
	b.cur = b.cur[:i+len(row)]
	dst := b.cur[i:]
	for j, rep := range row {
		dst[j] = Match{Position: bytePos(base + int64(rep.Offset)), Code: rep.Code}
	}
}

// grow retires the current chunk and starts one with room for at least
// need more matches.
func (b *rowMatches) grow(need int) {
	size := 256
	if c := cap(b.cur); c > 0 {
		b.full[b.nfull] = b.cur
		b.nfull++
		b.count += len(b.cur)
		size = 2 * c
	}
	b.cur = make([]Match, 0, max(size, need))
}

// result returns the collected matches in order (nil when there are none)
// with the report counts.
func (b *rowMatches) result() *ScanResult {
	out := &ScanResult{Stats: b.stats}
	if b.count+len(b.cur) == 0 {
		return out
	}
	out.Matches = make([]Match, 0, b.count+len(b.cur))
	for _, c := range b.full[:b.nfull] {
		out.Matches = append(out.Matches, c...)
	}
	out.Matches = append(out.Matches, b.cur...)
	return out
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
	out := DFAStats{Supported: e.art.dfaPlan != nil, Reason: e.art.metaIn.DFAReason}
	if e.runner != nil {
		s := e.runner.Stats()
		out.States, out.Hits, out.Misses = s.States, s.Hits, s.Misses
		out.Evictions, out.Fallbacks = s.Evictions, s.Fallbacks
	}
	return out
}

// Backend returns the engine's resolved scan backend ("nfa", "dfa" or
// "parallel"), annotated with the auto-selection reason when
// Options.Backend was "auto".
func (e *Engine) Backend() string { return e.art.backendNote }
