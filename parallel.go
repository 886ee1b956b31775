package sunder

import (
	"runtime"

	"sunder/internal/core"
	"sunder/internal/dfa"
	"sunder/internal/funcsim"
	"sunder/internal/meta"
	"sunder/internal/sched"
)

// ScanOptions configures the parallel scan paths (ScanParallel and
// ScanBatch). The zero value picks sensible defaults everywhere.
type ScanOptions struct {
	// Workers caps the number of worker goroutines; <= 0 uses GOMAXPROCS.
	Workers int
	// BatchSize bounds ScanBatch's in-flight queue: submission blocks once
	// that many scans are queued ahead of the workers (backpressure
	// instead of unbounded buffering). <= 0 selects 2× workers.
	BatchSize int
	// Backend overrides the engine's compiled backend for this call; ""
	// keeps the compiled choice and "auto" resolves as Options.Backend
	// "auto" would have. A "dfa" override on these entry points runs the
	// lazy DFA sequentially on a private runner (the DFA's state cache is
	// inherently serial), ignoring Workers — output stays byte-identical.
	// An unsupported "dfa" override is an error.
	Backend string
}

func (o ScanOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ScanParallel is Scan over worker goroutines: one large input is sharded
// across workers, each driving its own clone of the compiled machine, with
// per-shard warm-up replay sized to the automaton's dependence window so
// the merged output is byte-identical to sequential Scan — same matches in
// the same order, and the same KernelCycles, Reports and ReportCycles.
//
// StallCycles and Flushes are summed across the worker clones; each clone's
// report region fills on its shard's local history, so these two fields
// (and PerPU) describe the parallel execution itself and are not
// cycle-comparable to a sequential scan. Automata whose dependence window
// is unbounded (`.*`-style self-loops) and inputs too small to shard fall
// back to a sequential run internally — same results, one worker.
//
// ScanParallel never touches the engine's shared machine, so concurrent
// calls on one engine are safe. Under an armed fault policy it delegates
// to the sequential guarded Scan: the recovery protocol is strictly
// sequential (see SetFaultPolicy).
func (e *Engine) ScanParallel(input []byte, opts ScanOptions) (*ScanResult, error) {
	if e.injector != nil {
		return e.Scan(input)
	}
	backend, err := e.effectiveBackend(opts.Backend)
	if err != nil {
		return nil, err
	}
	if e.pre.enabled() {
		return e.scanPrefiltered(input, opts.workers())
	}
	if backend == meta.BackendDFA {
		return e.scanDFAFresh(input), nil
	}
	return e.scanSharded(input, opts)
}

// scanSharded is the sharded parallel run ScanParallel (and Scan on the
// "parallel" backend) execute: worker clones with dependence-window warm-up
// replay, merged back into sequential order.
func (e *Engine) scanSharded(input []byte, opts ScanOptions) (*ScanResult, error) {
	units := funcsim.BytesToUnits(input, 4)
	rr := sched.ParallelRun(e.proto, e.nibble, units, sched.RunConfig{
		Workers:      opts.workers(),
		RecordEvents: true,
		Collector:    e.telemetryCollector(),
	})
	out := &ScanResult{
		Stats: Stats{
			KernelCycles: rr.KernelCycles,
			StallCycles:  rr.StallCycles,
			Flushes:      rr.Flushes,
			Reports:      rr.Reports,
			ReportCycles: rr.ReportCycles,
		},
		PerPU: toPUStats(rr.PerPU),
	}
	if len(rr.Events) > 0 {
		out.Matches = make([]Match, 0, len(rr.Events))
	}
	for _, ev := range rr.Events {
		// Same phantom filter as Scan: matches "ending" in the pad tail of
		// the final vector are artifacts of Pad units.
		if ev.Unit >= int64(len(units)) {
			continue
		}
		out.Matches = append(out.Matches, Match{
			Position: ev.Unit / int64(e.nibble.SymbolUnits),
			Code:     ev.Code,
		})
	}
	return out, nil
}

// ScanBatch scans many independent inputs concurrently on a bounded worker
// pool: opts.Workers machine clones serve the queue, and at most
// opts.BatchSize scans wait in flight. results[i] corresponds to inputs[i]
// and is identical to what Scan(inputs[i]) on a fresh engine would return.
//
// Like ScanParallel it leaves the engine's shared machine alone and is
// safe to call concurrently. Under an armed fault policy the batch runs
// sequentially through the guarded Scan path.
func (e *Engine) ScanBatch(inputs [][]byte, opts ScanOptions) ([]*ScanResult, error) {
	results := make([]*ScanResult, len(inputs))
	if e.injector != nil {
		for i, in := range inputs {
			res, err := e.Scan(in)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	backend, err := e.effectiveBackend(opts.Backend)
	if err != nil {
		return nil, err
	}
	workers := opts.workers()
	if workers > len(inputs) {
		workers = len(inputs)
	}
	if workers < 1 {
		workers = 1
	}
	queue := opts.BatchSize
	if queue <= 0 {
		queue = 2 * workers
	}
	col := e.telemetryCollector()
	machines := make([]*core.Machine, workers)
	for i := range machines {
		machines[i] = e.proto.Clone()
		if col != nil {
			machines[i].AttachTelemetry(col)
		}
	}
	// On the DFA backend each worker owns a private runner: inputs are
	// independent, so runners reset per input but keep their caches warm
	// across the batch.
	var runners []*dfa.Runner
	if backend == meta.BackendDFA && !e.pre.enabled() {
		runners = make([]*dfa.Runner, workers)
		for i := range runners {
			runners[i] = dfa.NewRunner(e.dfaPlan, dfa.DefaultConfig())
		}
	}
	pool := sched.NewPool(workers, queue)
	for i, in := range inputs {
		i, in := i, in
		if e.pre.enabled() {
			pool.Submit(func(int) {
				// The filtered scan clones its own window machines; the
				// pool's pre-built clones stay idle for this input.
				res, _ := e.scanPrefiltered(in, 1)
				results[i] = res
			})
			continue
		}
		if runners != nil {
			pool.Submit(func(worker int) {
				results[i] = e.scanDFAWith(runners[worker], in)
			})
			continue
		}
		units := funcsim.BytesToUnits(in, 4)
		pool.Submit(func(worker int) {
			m := machines[worker]
			m.Reset()
			r := m.Run(units, core.RunOptions{RecordEvents: true})
			out := &ScanResult{
				Stats: Stats{
					KernelCycles: r.KernelCycles,
					StallCycles:  r.StallCycles,
					Flushes:      r.Flushes,
					Reports:      r.Reports,
					ReportCycles: r.ReportCycles,
				},
				PerPU: toPUStats(m.PerPU()),
			}
			if len(r.Events) > 0 {
				out.Matches = make([]Match, 0, len(r.Events))
			}
			for _, ev := range r.Events {
				if ev.Unit >= int64(len(units)) {
					continue
				}
				out.Matches = append(out.Matches, Match{
					Position: ev.Unit / int64(e.nibble.SymbolUnits),
					Code:     ev.Code,
				})
			}
			results[i] = out
		})
	}
	pool.Wait()
	return results, nil
}

// Clone returns an independent engine sharing this engine's immutable
// compile artifacts (automata, placement) but owning its own pristine
// machine. Sequential scans and streams on different clones may run fully
// concurrently. Fault policies and telemetry attachments do not carry
// over — arm them per clone as needed.
func (e *Engine) Clone() *Engine {
	return &Engine{
		opts:        e.opts,
		byteNFA:     e.byteNFA,
		nibble:      e.nibble,
		machine:     e.proto.Clone(),
		proto:       e.proto,
		place:       e.place,
		pruned:      e.pruned,
		minSum:      e.minSum,
		symClasses:  e.symClasses,
		pre:         e.pre,
		backend:     e.backend,
		backendNote: e.backendNote,
		autoChoice:  e.autoChoice,
		metaIn:      e.metaIn,
		dfaPlan:     e.dfaPlan,
		// dfaRunner stays nil: the clone builds its own on first DFA scan.
	}
}
