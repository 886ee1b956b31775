package sunder

import (
	"runtime"

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
	how, err := e.route(opts.Backend)
	if err != nil {
		return nil, err
	}
	switch how {
	case routeGuarded:
		return e.scanOn(&e.lane, input, how)
	case routePrefilter:
		return e.scanPrefiltered(input, opts.workers()), nil
	case meta.BackendDFA:
		// The DFA's state cache is inherently serial: Scan's body on a
		// fresh lane, leaving the engine's own runner alone.
		return e.scanOn(&lane{}, input, how)
	}
	return e.scanSharded(input, opts.workers()), nil
}

// scanSharded is the sharded parallel run ScanParallel (and Scan on the
// "parallel" backend) execute: worker clones with dependence-window warm-up
// replay, merged back into sequential order.
func (e *Engine) scanSharded(input []byte, workers int) *ScanResult {
	rr := sched.ParallelRun(e.art.proto, e.art.nibble, funcsim.BytesToUnits(input, 4), sched.RunConfig{
		Workers:      workers,
		RecordEvents: true,
		Collector:    e.telemetryCollector(),
	})
	return e.art.result(&rr.Result, len(input), toPUStats(rr.PerPU))
}

// ScanBatch scans many independent inputs concurrently on a bounded worker
// pool: opts.Workers workers, each with its own machine clone and lazy-DFA
// runner, serve the queue, and at most opts.BatchSize scans wait in
// flight. Each input runs Scan's own sequential body, so results[i] is
// identical to what Scan(inputs[i]) on a fresh engine would return.
//
// Like ScanParallel it leaves the engine's shared machine alone and is
// safe to call concurrently. Under an armed fault policy the batch runs
// sequentially through the guarded Scan path.
func (e *Engine) ScanBatch(inputs [][]byte, opts ScanOptions) ([]*ScanResult, error) {
	how, err := e.route(opts.Backend)
	if err != nil {
		return nil, err
	}
	results := make([]*ScanResult, len(inputs))
	if how == routeGuarded {
		for i, in := range inputs {
			if results[i], err = e.scanOn(&e.lane, in, how); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	if how == meta.BackendParallel {
		// The batch is the parallelism: each input runs whole on its lane.
		how = meta.BackendNFA
	}
	workers := max(1, min(opts.workers(), len(inputs)))
	queue := opts.BatchSize
	if queue <= 0 {
		queue = 2 * workers
	}
	col := e.telemetryCollector()
	lanes := make([]lane, workers)
	for i := range lanes {
		lanes[i].machine = e.art.proto.Clone()
		if col != nil {
			lanes[i].machine.AttachTelemetry(col)
		}
	}
	pool := sched.NewPool(workers, queue)
	for i, in := range inputs {
		i, in := i, in
		pool.Submit(func(worker int) {
			// Only the guarded route can fail, and it never reaches here.
			results[i], _ = e.scanOn(&lanes[worker], in, how)
		})
	}
	pool.Wait()
	return results, nil
}

// Clone returns an independent engine sharing this engine's immutable
// compile artifact (automata, placement, plans) but owning its own
// pristine machine. Sequential scans and streams on different clones may
// run fully concurrently. Fault policies and telemetry attachments do not
// carry over — arm them per clone as needed.
func (e *Engine) Clone() *Engine { return e.art.newEngine() }
