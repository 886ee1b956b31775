package sunder

import (
	"fmt"

	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/dfa"
	"sunder/internal/faults"
	"sunder/internal/funcsim"
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

// executor is the one sequential run on a lane. Scan (one write of the
// whole input, then close), ScanBatch workers, ScanParallel's dfa route and
// Stream all drive it, on the nfa, dfa or guarded route. It steps whole
// cycles directly from the caller's bytes, carrying at most one incomplete
// cycle between writes, and every cycle's emission row goes to rows.
//
// On the dfa route KernelCycles is the device's padded cycle count, and
// StallCycles, Flushes and the PerPU breakdown — artifacts of the simulated
// report region — are zero: the same documented divergence as
// ScanParallel's clone-local stall accounting.
type executor struct {
	e *Engine
	// One substrate runs: the lane's machine (nfa route), its lazy-DFA
	// runner (dfa route) or a fault guard over the engine's machine
	// (guarded route, where close sets m to the guard's final machine).
	m *core.Machine
	r *dfa.Runner
	g *faults.Guard
	// step is the bytes one step consumes: one cycle, except on the nfa
	// route at rate 1, where a byte is two one-nibble cycles. A step is 1
	// or 2 bytes, so part holds at most one byte of an incomplete step.
	step   int
	part   [2]byte
	npart  int
	cycles int64
	// vec is the unit vector of one step on the nfa route.
	vec  [4]funcsim.Unit
	rows rowMatches
}

// newExecutor starts a run on lane l along route how, delivering matches
// to onMatch, or collecting them in rows when onMatch is nil. The guarded
// route runs on the engine's own machine whatever the lane: its recovery
// may quarantine PUs, which replaces the engine's machine and placement.
func (e *Engine) newExecutor(l *lane, how string, onMatch func(Match)) (*executor, error) {
	x := &executor{e: e, rows: rowMatches{a: e.art, onMatch: onMatch}}
	switch how {
	case routeGuarded:
		g, err := e.newGuard()
		if err != nil {
			return nil, err
		}
		g.OnReportCycle(x.rows.add)
		x.g = g
		return x, nil
	case meta.BackendDFA:
		x.r = l.dfaRunner(e.art)
		x.r.Reset()
		x.step = e.art.dfaPlan.StepBytes()
	default:
		// A run is sequential, so "parallel" runs on the machine like "nfa".
		x.m = l.machine
		x.m.Reset()
		x.step = max(1, int(e.art.cycleUnits)/2)
	}
	return x, nil
}

// write runs p: every whole step, with an incomplete one carried in part.
// Only the guarded route fails: its error is sticky, and the engine has
// adopted the guard's machine and placement.
func (x *executor) write(p []byte) error {
	x.rows.n += int64(len(p))
	if x.g != nil {
		if err := x.g.Feed(funcsim.BytesToUnits(p, 4)); err != nil {
			x.e.adoptGuard(x.g)
			return err
		}
		return nil
	}
	if x.npart > 0 {
		k := copy(x.part[x.npart:x.step], p)
		x.npart += k
		p = p[k:]
		if x.npart < x.step {
			return nil
		}
		x.run(x.part[:x.step])
	}
	whole := len(p) - len(p)%x.step
	for off := 0; off < whole; off += x.step {
		x.run(p[off : off+x.step])
	}
	x.npart = copy(x.part[:], p[whole:])
	return nil
}

// run executes one step of b, padded when b is the short final step.
func (x *executor) run(b []byte) {
	if x.r != nil {
		x.rows.add(x.cycles, x.r.Step(b, x.step-len(b)))
		x.cycles++
		return
	}
	n := 0
	for _, c := range b {
		x.vec[n], x.vec[n+1] = funcsim.Unit(c>>4), funcsim.Unit(c&0x0f)
		n += 2
	}
	for ; n < 2*x.step; n++ {
		x.vec[n] = funcsim.Pad
	}
	rate := int(x.e.art.cycleUnits)
	for u := 0; u < n; u += rate {
		x.rows.add(x.cycles, x.m.StepRow(x.vec[u:u+rate]))
		x.cycles++
	}
}

// close runs the final incomplete step, padded, and returns the run's
// Stats. On the guarded route it finishes the guard, and the engine adopts
// the guard's machine and placement; the error is the guard's.
func (x *executor) close() (Stats, error) {
	var err error
	if x.g != nil {
		err = x.g.Finish()
		x.e.adoptGuard(x.g)
		x.m = x.e.machine
	} else if x.npart > 0 {
		x.run(x.part[:x.npart])
		x.npart = 0
	}
	st := x.rows.stats
	if x.r != nil {
		st.KernelCycles = x.cycles
	} else {
		st.KernelCycles, st.StallCycles, st.Flushes = x.m.KernelCycles(), x.m.StallCycles(), x.m.Flushes()
	}
	return st, err
}

// perPU is the closed run's per-PU breakdown.
func (x *executor) perPU() []PUStats {
	if x.r != nil {
		return x.e.art.idlePerPU()
	}
	return toPUStats(x.m.PerPU())
}

// rowMatches is the sink of per-cycle emission rows: it counts them into
// Reports/ReportCycles and turns them into matches, delivered to onMatch
// (Stream) or, when onMatch is nil, collected into doubling chunks, so a
// scan with millions of matches never re-copies a growing slice; matches
// then copies them once into an exactly sized slice. Allocations grow with
// the log of the match count, and nothing outlives the call that owns the
// collector.
type rowMatches struct {
	a *artifact
	// n is the input length so far: reports ending at or past byte n are
	// pad-tail phantoms, counted in Reports but not matches. Padding only
	// ever completes the final cycle, so n is final whenever one is found.
	n       int64
	stats   Stats
	onMatch func(Match)
	// full holds the filled chunks; 40 doublings from 256 matches exceed
	// any address space, so it never grows.
	full  [40][]Match
	nfull int
	cur   []Match
	count int
}

// add accounts one cycle's emission row (empty when nothing reported) and
// delivers or appends its matches. Rows ascend by position, so phantoms
// are a row's suffix.
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
	if b.onMatch != nil {
		for _, rep := range row {
			b.onMatch(Match{Position: bytePos(base + int64(rep.Offset)), Code: rep.Code})
		}
		return
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

// matches returns the collected matches in order, nil when there are none.
func (b *rowMatches) matches() []Match {
	if b.count+len(b.cur) == 0 {
		return nil
	}
	out := make([]Match, 0, b.count+len(b.cur))
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
