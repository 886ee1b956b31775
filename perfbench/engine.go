package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sunder"
	"sunder/internal/automata"
	"sunder/internal/dfa"
	"sunder/internal/prefilter"
	"sunder/internal/workload"
)

// engineWorkload is an in-process workload: one generated automaton and a
// seed-chosen slice of its generated input stream, scanned through the
// library entry points.
type engineWorkload struct {
	bench string // generator name in internal/workload
	opts  sunder.Options
}

// denseReports is Snort: about 1.77M matches per MB, on the lazy DFA that
// "auto" selects (the prefilter finds no usable literal).
var denseReports = engineWorkload{bench: "Snort", opts: autoOptions(false)}

// literalWindows is PowerEN with the prefilter on: Aho-Corasick opens about
// 4.5K candidate windows per MB, each replayed on a device-core clone.
var literalWindows = engineWorkload{bench: "PowerEN", opts: autoOptions(true)}

func autoOptions(prefilter bool) sunder.Options {
	o := sunder.DefaultOptions()
	o.Backend = "auto"
	if prefilter {
		o.Prefilter = sunder.PrefilterOn
	}
	return o
}

const (
	genScale  = 0.02    // workload generator scale
	streamLen = 8 << 20 // generated stream the seed slices
	sliceLen  = 1 << 20 // scanned input
	packetLen = 1460    // Stream write size: one TCP segment on a 1500-byte MTU
	setupReps = 5       // set-ups per run; setup_s is their median
	// compilesPerRound adds compiles to each measured round, for a
	// compile_ms median over samples from the whole run.
	compilesPerRound = 3
	// maxErrors caps the failure messages printed to stderr per run.
	maxErrors = 5
)

// engineRun holds one run's inputs and accumulators.
type engineRun struct {
	cfg    runConfig
	input  []byte
	ref    *reference
	chk    checker
	out    *outcome
	keys   []uint64
	allocs *allocMeter
	errs   int
}

func (r *engineRun) verify(what string, keys []uint64, have counts, err error) {
	if err == nil {
		err = r.chk.check(r.ref, keys, have)
	}
	r.record(what, err)
}

// record counts one operation, failed if err is set.
func (r *engineRun) record(what string, err error) {
	r.out.attempted++
	if err != nil {
		r.out.failed++
		if r.errs++; r.errs <= maxErrors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		}
	}
}

// opTimes are one entry point's calls: their count, total wall time and
// allocations.
type opTimes struct {
	calls          int
	secs           float64
	bytes, objects float64
}

func (o *opTimes) add(d time.Duration, b0, n0, b1, n1 float64) {
	o.calls++
	o.secs += d.Seconds()
	o.bytes += b1 - b0
	o.objects += n1 - n0
}

// mbps is the input bytes the calls scanned over their total wall time.
func (o *opTimes) mbps(inputBytes int) float64 {
	return float64(o.calls*inputBytes) / 1e6 / o.secs
}

func runEngine(wl engineWorkload, cfg runConfig) (*outcome, error) {
	w, err := workload.Get(wl.bench, genScale, streamLen)
	if err != nil {
		return nil, err
	}
	stepBytes := wl.opts.Rate * 4 / 8
	off := rand.New(rand.NewSource(cfg.seed)).Intn((streamLen-sliceLen)/stepBytes+1) * stepBytes
	r := &engineRun{
		cfg:    cfg,
		input:  w.Input[off : off+sliceLen],
		out:    &outcome{values: map[string]float64{}},
		allocs: newAllocMeter(),
	}
	if r.ref, err = newReference(w.Automaton, r.input, stepBytes); err != nil {
		return nil, err
	}
	r.keys = make([]uint64, 0, len(r.ref.ordered))
	fmt.Printf("# %s: %s scale %g, %d byte states, input bytes [%d, %d) of %d, %d reference matches\n",
		cfg.workload, wl.bench, genScale, w.Automaton.NumStates(), off, off+sliceLen, streamLen, len(r.ref.ordered))

	// Set-up: compile, then one Scan to warm the engine (the lazy DFA
	// fills its state cache here). Repeated; the last engine is measured.
	var eng *sunder.Engine
	var setupS, compileMS, heapMB []float64
	for i := 0; i < setupReps; i++ {
		eng = nil // the previous engine is not part of this one's footprint
		base := liveHeap()
		t0 := time.Now()
		e, err := sunder.CompileAutomaton(w.Automaton, wl.opts)
		if err != nil {
			return nil, err
		}
		compiled := time.Since(t0)
		res, err := e.Scan(r.input)
		setup := time.Since(t0)
		if err == nil {
			r.verify("warm-up Scan", appendKeys(r.keys[:0], res.Matches), statsCounts(res.Stats), nil)
		} else {
			r.verify("warm-up Scan", nil, counts{}, err)
		}
		eng = e
		setupS = append(setupS, setup.Seconds())
		compileMS = append(compileMS, ms(compiled))
		heapMB = append(heapMB, (liveHeap()-base)/1e6)
	}
	info := eng.Info()
	fmt.Printf("# %s: backend %q, prefilter %s, %d device states, %d PUs\n",
		cfg.workload, info.Backend, info.PrefilterStrategy, info.DeviceStates, info.PUs)

	if cfg.trace {
		if err := r.traced(eng, w.Automaton, wl.opts); err != nil {
			return nil, err
		}
	} else {
		more, err := r.measure(eng, w.Automaton, wl.opts)
		if err != nil {
			return nil, err
		}
		compileMS = append(compileMS, more...)
		v := r.out.values
		v["setup_s"] = median(setupS)
		v["compile_ms"] = median(compileMS)
		v["heap_mb"] = median(heapMB)
	}
	fmt.Printf("# check.order_divergent_ops=%d of %d operations\n", r.chk.divergent, r.out.attempted)
	return r.out, nil
}

// scanOnce, streamOnce and parallelOnce each call one entry point on the
// whole input and check the result. They return the call's wall time and
// the allocation counters around the call alone.
func (r *engineRun) scanOnce(eng *sunder.Engine) (d time.Duration, b0, n0, b1, n1 float64) {
	return r.callOnce("Scan", func() (*sunder.ScanResult, error) { return eng.Scan(r.input) })
}

func (r *engineRun) parallelOnce(eng *sunder.Engine) (d time.Duration, b0, n0, b1, n1 float64) {
	return r.callOnce("ScanParallel", func() (*sunder.ScanResult, error) {
		return eng.ScanParallel(r.input, sunder.ScanOptions{Workers: r.cfg.nproc})
	})
}

func (r *engineRun) callOnce(what string, call func() (*sunder.ScanResult, error)) (d time.Duration, b0, n0, b1, n1 float64) {
	b0, n0 = r.allocs.read()
	t0 := time.Now()
	res, err := call()
	d = time.Since(t0)
	b1, n1 = r.allocs.read()
	if err != nil {
		r.verify(what, nil, counts{}, err)
	} else {
		r.verify(what, appendKeys(r.keys[:0], res.Matches), statsCounts(res.Stats), nil)
	}
	return
}

// streamOnce feeds the input through NewStream in packetLen writes; lat
// receives each Write's latency.
func (r *engineRun) streamOnce(eng *sunder.Engine, lat []time.Duration) (d time.Duration, b0, n0, b1, n1 float64) {
	keys := r.keys[:0]
	onMatch := func(m sunder.Match) { keys = append(keys, matchKey(m.Position, m.Code)) }
	var err error
	var st sunder.Stats
	b0, n0 = r.allocs.read()
	t0 := time.Now()
	s, err := eng.NewStream(onMatch)
	if err == nil {
		for i, off := 0, 0; off < len(r.input) && err == nil; i, off = i+1, off+packetLen {
			w0 := time.Now()
			_, err = s.Write(r.input[off:min(off+packetLen, len(r.input))])
			lat[i] = time.Since(w0)
		}
		st = s.Close()
		if err == nil {
			err = s.Err()
		}
	}
	d = time.Since(t0)
	b1, n1 = r.allocs.read()
	r.verify("Stream", keys, statsCounts(st), err)
	return
}

func writesPerInput(n int) int { return (n + packetLen - 1) / packetLen }

// measure cycles Scan, Stream, ScanParallel and compiles on the warmed
// engine until the run's time is up, and reports the end-to-end metrics.
// Each call starts from a collected heap, so the garbage of earlier calls
// does not decide when a call's collections run.
func (r *engineRun) measure(eng *sunder.Engine, a *automata.Automaton, opts sunder.Options) (compileMS []float64, err error) {
	var scan, stream, par opTimes
	lat := make([]time.Duration, writesPerInput(len(r.input)))
	var writeMS []float64
	deadline := time.Now().Add(r.cfg.seconds)
	for time.Now().Before(deadline) {
		runtime.GC()
		scan.add(r.scanOnce(eng))
		runtime.GC()
		stream.add(r.streamOnce(eng, lat))
		for _, d := range lat {
			writeMS = append(writeMS, ms(d))
		}
		runtime.GC()
		par.add(r.parallelOnce(eng))
		for i := 0; i < compilesPerRound; i++ {
			runtime.GC()
			t0 := time.Now()
			if _, err := sunder.CompileAutomaton(a, opts); err != nil {
				return nil, err
			}
			compileMS = append(compileMS, ms(time.Since(t0)))
		}
	}
	inMB := float64((scan.calls+stream.calls+par.calls)*len(r.input)) / 1e6
	v := r.out.values
	v["scan_mbps"] = scan.mbps(len(r.input))
	v["stream_mbps"] = stream.mbps(len(r.input))
	v["parallel_mbps"] = par.mbps(len(r.input))
	v["req_p50_ms"] = quantile(writeMS, 0.50)
	v["req_p95_ms"] = quantile(writeMS, 0.95)
	v["allocs_per_mb"] = (scan.objects + stream.objects + par.objects) / inMB
	v["alloc_mb_per_mb"] = (scan.bytes + stream.bytes + par.bytes) / 1e6 / inMB
	fmt.Printf("# %s: %d rounds of Scan, Stream, ScanParallel and compiles; %d writes of %d bytes\n",
		r.cfg.workload, scan.calls, len(writeMS), packetLen)
	return compileMS, nil
}

// traced is the per-layer run: the compile replay, then rounds of the
// three entry points interleaved with step-only, unit-conversion, device
// and literal-scan replays on the same input, each call in a span. Every
// other round runs the entry points without spans, for the tracing
// overhead ratio.
func (r *engineRun) traced(eng *sunder.Engine, a *automata.Automaton, opts sunder.Options) error {
	tr := newTracer()
	info := eng.Info()
	var c *compiled
	for rep := int64(0); rep < 3; rep++ {
		var err error
		if c, err = replayCompile(tr, rep, nil, a, opts); err != nil {
			return err
		}
		r.record("compile replay", c.matchesInfo(info.DeviceStates, info.PUs, info.ReportColumns))
	}
	var runner *dfa.Runner
	if c.plan != nil {
		runner = dfa.NewRunner(c.plan, dfa.DefaultConfig())
	}
	var scanner prefilter.Scanner
	if lits := info.PrefilterLiterals; len(lits) > 0 {
		bs := make([][]byte, len(lits))
		for i, l := range lits {
			bs[i] = []byte(l)
		}
		scanner = prefilter.NewScanner(bs)
	}
	lat := make([]time.Duration, writesPerInput(len(r.input)))
	var untracedScan []float64
	var tot coreTotals
	var hits [][2]int
	var last *sunder.ScanResult
	g0 := readGC()
	deadline := time.Now().Add(r.cfg.seconds)
	for op := int64(0); op < 2 || time.Now().Before(deadline); op++ {
		if op%2 == 1 {
			d, _, _, _, _ := r.scanOnce(eng)
			untracedScan = append(untracedScan, d.Seconds())
			r.streamOnce(eng, lat)
			r.parallelOnce(eng)
			continue
		}
		root := tr.begin("round", 0, op)
		var err error
		tr.timed("sunder.Scan", root, op, func() { last, err = eng.Scan(r.input) })
		if err != nil {
			return fmt.Errorf("Scan: %w", err)
		}
		tr.timed("check", root, op, func() {
			r.verify("Scan", appendKeys(r.keys[:0], last.Matches), statsCounts(last.Stats), nil)
		})
		tr.timed("sunder.Stream", root, op, func() { r.streamOnce(eng, lat) })
		tr.timed("sunder.ScanParallel", root, op, func() { r.parallelOnce(eng) })
		have := replayCore(tr, root, op, c, r.input, &tot, op == 0)
		r.record("core replay", checkCounts(have, r.ref.want))
		if runner != nil {
			replayDFAStep(tr, root, op, runner, r.input)
		}
		if scanner != nil {
			hits = hits[:0]
			tr.timed("prefilter.Scanner.Scan", root, op, func() {
				scanner.Scan(r.input, func(q, e int) { hits = append(hits, [2]int{q, e}) })
			})
		}
		tr.end(root)
	}
	v := r.out.values
	gcValues(g0, readGC(), v)
	compileValues(tr, c, v)
	coreValues(tr, tot, v)
	dfaValues(eng, v)
	scanS := tr.medianSeconds("sunder.Scan")
	v["dfa.step_s"] = tr.medianSeconds("dfa.Runner.Step")
	v["sunder.emit_s"] = 0
	if backendIs(info, "dfa") {
		v["sunder.emit_s"] = scanS - v["dfa.step_s"]
	}
	find := tr.medianSeconds("prefilter.Scanner.Scan")
	v["prefilter.find_s"] = find
	st := last.Stats
	v["prefilter.windows"] = float64(st.PrefilterWindows)
	v["prefilter.skip_ratio"] = ratio(float64(st.SkippedCycles), float64(st.KernelCycles+st.SkippedCycles))
	v["prefilter.useful_window_ratio"] = 0
	v["sched.window_s"] = 0
	v["sched.us_per_window"] = 0
	if scanner != nil {
		windows, useful := usefulWindows(c.ua, hits, r.ref, r.ref.want.Cycles, opts.Rate*4/8)
		if int64(windows) != st.PrefilterWindows {
			fmt.Printf("# note: replanned %d windows, engine ran %d\n", windows, st.PrefilterWindows)
		}
		v["prefilter.useful_window_ratio"] = ratio(float64(useful), float64(windows))
		v["sched.window_s"] = scanS - find
		v["sched.us_per_window"] = ratio((scanS-find)*1e6, float64(st.PrefilterWindows))
	}
	for _, k := range []string{"server.handler_p50_ms", "server.handler_p99_ms", "server.pool_wait_p99_ms",
		"server.sheds", "server.compile_p50_ms", "server.pool_wait_span_ms", "server.scan_span_ms",
		"server.outside_handler_p50_ms", "sunder.cache_hit_ratio", "loadgen.lag_p99_ms"} {
		v[k] = 0 // no server, no compile cache, no load generator on this workload
	}
	v["trace.overhead_ratio"] = ratio(scanS, median(untracedScan))
	v["check.order_divergent_ops"] = float64(r.chk.divergent)
	return tr.write(r.cfg.spans)
}

// checkCounts compares a replay's simulated counts with the reference.
func checkCounts(have, want counts) error {
	if have != want {
		return fmt.Errorf("counts %+v, want %+v", have, want)
	}
	return nil
}
