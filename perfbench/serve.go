package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"sunder"
	"sunder/internal/dfa"
	"sunder/internal/regex"
	"sunder/internal/server"
)

const (
	packetBytes = 4096     // /scan body: one packet-sized input
	packetPool  = 64       // distinct packets per run
	streamBytes = 16 << 10 // /stream body
	streamPool  = 4        // distinct stream bodies per run
	// offeredRate is the open loop's fixed /scan rate. With the /stream and
	// PUT traffic beside it, the offered work is about half of what 2 CPUs
	// serve at the seed commit (closed-loop capacity is about 320 /scan
	// per second, 6 ms of device-core time each).
	offeredRate = 80
	streamEvery = 500 * time.Millisecond
	putEvery    = time.Second
	// stagingRules is the size of the staging rule set each PUT uploads:
	// a variant of the first rules of the served set. It is kept small so
	// compiles compete with scans for a few percent of the time, not for
	// the tail of every run.
	stagingRules = 20
	// repeatPutEvery makes every third staging upload repeat an earlier
	// variant (a compile-cache hit); the others are fresh (misses).
	repeatPutEvery = 3
	serveSetupReps = 5
	// Each measured cycle splits into the open loop and two closed loops.
	serveCycles = 6
	openShare   = 0.65
	singleShare = 0.15
)

// serveRun holds one serve-nids run: its inputs with their references, the
// HTTP client, and the outcome.
type serveRun struct {
	cfg       runConfig
	words     []string
	rules     []sunder.Pattern
	variants  [][]sunder.Pattern // staging uploads, in schedule order
	fresh     []bool             // whether each variant is new (a compile-cache miss)
	packets   [][]byte
	streams   [][]byte
	pktRef    []*reference
	streamRef []*reference
	client    *http.Client
	transport *http.Transport
	out       *outcome
	mu        sync.Mutex // guards out and divergent across senders
	divergent int64
	errs      int
}

// record counts one operation, failed if err is set. Safe for concurrent use.
func (s *serveRun) record(what string, err error, divergent bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out.attempted++
	if divergent {
		s.divergent++
	}
	if err != nil {
		s.out.failed++
		if s.errs++; s.errs <= maxErrors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		}
	}
}

// liveServer is an in-process server on a loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(traceEvery int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Request logs are filtered out before formatting: the benchmark
	// measures the service, not its log sink.
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	srv := server.New(server.Config{Logger: quiet, TraceSampleEvery: traceEvery})
	l := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	<-l.done
	return err
}

func runServe(cfg runConfig) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &serveRun{cfg: cfg, out: &outcome{values: map[string]float64{}}}
	s.words = nidsWords(rng, 100)
	s.rules = nidsRules(s.words)
	if err := s.makeInputs(rng); err != nil {
		return nil, err
	}
	s.transport = &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc, DisableCompression: true}
	defer s.transport.CloseIdleConnections()
	s.client = &http.Client{Transport: s.transport, Timeout: 30 * time.Second}

	// Set-up: a fresh server, the rule set compiled by its first PUT (the
	// compile cache is emptied so it misses), the engine pool's clones, and
	// one warm-up scan. In the traced run only the last server traces; the
	// one before it runs a short single-connection loop untraced, as the
	// base of the tracing overhead ratio.
	var live *liveServer
	var setupS, heapMB []float64
	var untracedMS []float64
	for rep := 0; rep < serveSetupReps; rep++ {
		if live != nil {
			if err := live.stop(); err != nil {
				return nil, err
			}
			live = nil
			s.transport.CloseIdleConnections()
		}
		sunder.ResetCompileCache()
		base := liveHeap()
		traceEvery := 0
		if cfg.trace && rep == serveSetupReps-1 {
			traceEvery = 1
		}
		t0 := time.Now()
		l, err := startServer(traceEvery)
		if err != nil {
			return nil, err
		}
		live = l
		if _, err := s.put(l.url, "nids", s.rules); err != nil {
			return nil, fmt.Errorf("set-up PUT: %w", err)
		}
		if _, err := s.scanChecked(l.url, 0); err != nil {
			s.record("warm-up /scan", err, false)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heapMB = append(heapMB, (liveHeap()-base)/1e6)
		if cfg.trace && rep == serveSetupReps-2 {
			untracedMS = s.closedLoop(l.url, 1, time.Second)
		}
	}
	defer live.stop()
	live.srv.ResetRequestMetrics()
	fmt.Printf("# serve-nids: %d rules, offered rate %d /scan per s, /stream every %v, staging PUT every %v, %d connections\n",
		len(s.rules), offeredRate, streamEvery, putEvery, cfg.nproc)

	// The measured time alternates the open loop, the one-connection loop
	// and the capacity loop serveCycles times. Each latency and throughput
	// is the median of its per-cycle values, so one cycle that meets a
	// stall of the machine moves it less than a pooled figure.
	cycle := cfg.seconds / serveCycles
	openDur := time.Duration(float64(cycle) * openShare)
	singleDur := time.Duration(float64(cycle) * singleShare)
	capDur := cycle - openDur - singleDur
	ol := &openLoopResult{}
	var singleMS, capMS []float64
	var p50s, p95s, streamRates, scanRates, capRates []float64
	var allocBytes, allocObjects float64
	cache0 := sunder.CompileCacheInfo()
	g0 := readGC()
	am := newAllocMeter()
	for c := 0; c < serveCycles; c++ {
		b0, n0 := am.read()
		seg := s.openLoop(live.url, openDur, rng)
		b1, n1 := am.read()
		allocBytes += b1 - b0
		allocObjects += n1 - n0
		ol.add(seg)
		p50s = append(p50s, quantile(seg.scanMS, 0.50))
		p95s = append(p95s, quantile(seg.scanMS, 0.95))
		streamRates = append(streamRates, ratio(float64(len(seg.streamMS))*streamBytes/1e3, sum(seg.streamMS)))
		lat := s.closedLoop(live.url, 1, singleDur)
		singleMS = append(singleMS, lat...)
		scanRates = append(scanRates, ratio(float64(len(lat))*packetBytes/1e3, sum(lat)))
		lat = s.closedLoop(live.url, cfg.nproc, capDur)
		capMS = append(capMS, lat...)
		capRates = append(capRates, float64(len(lat))*packetBytes/1e6/capDur.Seconds())
	}
	g1 := readGC()
	cache1 := sunder.CompileCacheInfo()

	v := s.out.values
	if !cfg.trace {
		inMB := float64(ol.bytes) / 1e6
		v["setup_s"] = median(setupS)
		v["compile_ms"] = median(ol.putMissMS)
		v["heap_mb"] = median(heapMB)
		v["scan_mbps"] = median(scanRates)
		v["stream_mbps"] = median(streamRates)
		v["parallel_mbps"] = median(capRates)
		v["req_p50_ms"] = median(p50s)
		v["req_p95_ms"] = median(p95s)
		v["allocs_per_mb"] = allocObjects / inMB
		v["alloc_mb_per_mb"] = allocBytes / 1e6 / inMB
	} else {
		gcValues(g0, g1, v)
		v["loadgen.lag_p99_ms"] = quantile(ol.lagMS, 0.99)
		hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
		v["sunder.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		v["trace.overhead_ratio"] = ratio(median(singleMS), median(untracedMS))
		sendMS := append(append(ol.scanSendMS, singleMS...), capMS...)
		if err := s.serverValues(live.url, sendMS, v); err != nil {
			return nil, err
		}
		if err := s.replayLayers(live.url, v); err != nil {
			return nil, err
		}
	}
	v["check.order_divergent_ops"] = float64(s.divergent)
	fmt.Printf("# serve-nids: open loop %d /scan (%d late by more than 1 ms), %d /stream, %d PUT; single-connection %d /scan; capacity %.0f /scan per s over %d connections\n",
		len(ol.scanMS), countAbove(ol.lagMS, 1), len(ol.streamMS), len(ol.putMS), len(singleMS), median(capRates)*1e6/packetBytes, cfg.nproc)
	fmt.Printf("# check.order_divergent_ops=%d of %d operations\n", s.divergent, s.out.attempted)
	return s.out, nil
}

func countAbove(xs []float64, limit float64) int {
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return n
}

// makeInputs generates the packets, stream bodies and staging variants,
// and computes every input's reference on the rule set's byte automaton.
func (s *serveRun) makeInputs(rng *rand.Rand) error {
	nfa, err := regex.CompileSet(regexPatterns(s.rules))
	if err != nil {
		return fmt.Errorf("reference automaton: %w", err)
	}
	for i := 0; i < packetPool; i++ {
		s.packets = append(s.packets, nidsPacket(rng, s.words, packetBytes))
	}
	for i := 0; i < streamPool; i++ {
		s.streams = append(s.streams, nidsPacket(rng, s.words, streamBytes))
	}
	step := sunder.DefaultOptions().Rate * 4 / 8
	for _, p := range s.packets {
		r, err := newReference(nfa, p, step)
		if err != nil {
			return err
		}
		s.pktRef = append(s.pktRef, r)
	}
	for _, p := range s.streams {
		r, err := newReference(nfa, p, step)
		if err != nil {
			return err
		}
		s.streamRef = append(s.streamRef, r)
	}
	return nil
}

// put uploads a rule set with the server's default options.
func (s *serveRun) put(url, id string, rules []sunder.Pattern) (time.Duration, error) {
	req := server.RulesetRequest{Patterns: make([]server.PatternJSON, len(rules))}
	for i, p := range rules {
		req.Patterns[i] = server.PatternJSON{Expr: p.Expr, Code: p.Code}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequest(http.MethodPut, url+"/rulesets/"+id, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var info server.RulesetInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	d := time.Since(t0)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return d, fmt.Errorf("PUT %s: status %d", id, resp.StatusCode)
	}
	if err == nil && info.Info.DeviceStates == 0 {
		err = fmt.Errorf("PUT %s: empty compiled rule set", id)
	}
	return d, err
}

// scanChecked sends packet i as a raw /scan body and checks the response.
// It returns the time from send to decoded response.
func (s *serveRun) scanChecked(url string, i int) (time.Duration, error) {
	t0 := time.Now()
	resp, err := s.client.Post(url+"/rulesets/nids/scan", "application/octet-stream", bytes.NewReader(s.packets[i]))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var sr server.ScanResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	d := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("/scan: status %d", resp.StatusCode)
	}
	if err != nil {
		return d, err
	}
	if len(sr.Results) != 1 {
		return d, fmt.Errorf("/scan: %d results, want 1", len(sr.Results))
	}
	res := sr.Results[0]
	keys := make([]uint64, len(res.Matches))
	for j, m := range res.Matches {
		keys[j] = matchKey(m.Position, m.Code)
	}
	st := res.Stats
	var c checker
	err = c.check(s.pktRef[i], keys, counts{st.Reports, st.ReportCycles, st.KernelCycles + st.SkippedCycles})
	s.record("/scan", err, c.divergent > 0)
	return d, nil
}

// streamChecked sends stream body i to /stream and checks the NDJSON reply.
func (s *serveRun) streamChecked(url string, i int) error {
	resp, err := s.client.Post(url+"/rulesets/nids/stream", "application/octet-stream", bytes.NewReader(s.streams[i]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/stream: status %d", resp.StatusCode)
	}
	var keys []uint64
	var final *server.StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		if ev.Match != nil {
			keys = append(keys, matchKey(ev.Match.Position, ev.Match.Code))
		}
		if ev.Done {
			final = &ev
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if final == nil || final.Stats == nil || final.Reason != "" {
		return fmt.Errorf("/stream ended without a clean summary line")
	}
	st := final.Stats
	var c checker
	err = c.check(s.streamRef[i], keys, counts{st.Reports, st.ReportCycles, st.KernelCycles + st.SkippedCycles})
	s.record("/stream", err, c.divergent > 0)
	return nil
}

// job is one scheduled open-loop request.
type job struct {
	at   time.Duration // due time from the loop's start
	kind int           // jobScan, jobStream or jobPut
	idx  int           // packet, stream body or variant index
}

const (
	jobScan = iota
	jobStream
	jobPut
)

// openLoopResult holds the open loop's latencies (ms): /scan and /stream
// from each request's scheduled send time, /scan also from its actual
// send, PUT from its scheduled time and, for uploads that miss the compile
// cache, from its send; and each send's generator lag.
type openLoopResult struct {
	scanMS, scanSendMS, streamMS, putMS, putMissMS, lagMS []float64
	bytes                                                 int64
}

// openLoop sends a fixed schedule, independent of how fast the server
// answers, over nproc connections: /scan at offeredRate, /stream every
// streamEvery, and a staging upload every putEvery that either compiles a
// fresh variant or repeats an earlier one.
func (s *serveRun) openLoop(url string, dur time.Duration, rng *rand.Rand) *openLoopResult {
	var sched []job
	interval := time.Second / offeredRate
	for t := time.Duration(0); t < dur; t += interval {
		sched = append(sched, job{t, jobScan, rng.Intn(packetPool)})
	}
	for t := streamEvery / 2; t < dur; t += streamEvery {
		sched = append(sched, job{t, jobStream, rng.Intn(streamPool)})
	}
	for t := putEvery / 2; t < dur; t += putEvery {
		if len(s.variants)%repeatPutEvery == repeatPutEvery-1 {
			s.variants = append(s.variants, s.variants[rng.Intn(len(s.variants))])
			s.fresh = append(s.fresh, false)
		} else {
			s.variants = append(s.variants, nidsVariant(rng, s.rules[:stagingRules]))
			s.fresh = append(s.fresh, true)
		}
		sched = append(sched, job{t, jobPut, len(s.variants) - 1})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].at < sched[j].at })

	res := &openLoopResult{}
	for _, t := range runOpenLoop(sched, s.cfg.nproc, func(j job) time.Duration {
		switch j.kind {
		case jobScan:
			d, err := s.scanChecked(url, j.idx)
			if err != nil {
				s.record("/scan", err, false)
			}
			return d
		case jobStream:
			if err := s.streamChecked(url, j.idx); err != nil {
				s.record("/stream", err, false)
			}
		case jobPut:
			d, err := s.put(url, "staging", s.variants[j.idx])
			s.record("PUT /rulesets/staging", err, false)
			return d
		}
		return 0
	}) {
		res.lagMS = append(res.lagMS, ms(t.lag))
		switch t.kind {
		case jobScan:
			res.scanMS = append(res.scanMS, ms(t.latency))
			res.scanSendMS = append(res.scanSendMS, ms(t.service))
			res.bytes += packetBytes
		case jobStream:
			res.streamMS = append(res.streamMS, ms(t.latency))
			res.bytes += streamBytes
		case jobPut:
			res.putMS = append(res.putMS, ms(t.latency))
			if s.fresh[t.idx] {
				res.putMissMS = append(res.putMissMS, ms(t.service))
			}
		}
	}
	return res
}

// add appends o's samples to r.
func (r *openLoopResult) add(o *openLoopResult) {
	r.scanMS = append(r.scanMS, o.scanMS...)
	r.scanSendMS = append(r.scanSendMS, o.scanSendMS...)
	r.streamMS = append(r.streamMS, o.streamMS...)
	r.putMS = append(r.putMS, o.putMS...)
	r.putMissMS = append(r.putMissMS, o.putMissMS...)
	r.lagMS = append(r.lagMS, o.lagMS...)
	r.bytes += o.bytes
}

// timing is one open-loop request's outcome: latency from its due time to
// its completion (so a stall delays the requests behind it in the count),
// the service time send reported, and the generator lag, how late the send
// was beyond both its due time and its sender becoming free.
type timing struct {
	job
	latency, service, lag time.Duration
}

// runOpenLoop sends each job of a due-time-ordered schedule at its due time
// or, when every sender is busy, as soon as one frees up, using senders
// concurrent workers. send performs one request and returns its service
// time. It returns once every job has completed.
func runOpenLoop(sched []job, senders int, send func(job) time.Duration) []timing {
	jobs := make(chan job, len(sched)) // holds the whole schedule
	for _, j := range sched {
		jobs <- j
	}
	close(jobs)
	var mu sync.Mutex
	var out []timing
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []timing
			free := time.Now()
			for j := range jobs {
				due := start.Add(j.at)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				t := timing{job: j, lag: sent.Sub(maxTime(due, free))}
				t.service = send(j)
				free = time.Now()
				t.latency = free.Sub(due)
				local = append(local, t)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// closedLoop runs conns senders that each send the next /scan as soon as
// the previous one is answered, until dur has passed. It returns each
// completed request's send-to-response latency (ms).
func (s *serveRun) closedLoop(url string, conns int, dur time.Duration) []float64 {
	var mu sync.Mutex
	var all []float64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []float64
			for i := w; time.Now().Before(deadline); i += conns {
				d, err := s.scanChecked(url, i%packetPool)
				if err != nil {
					s.record("/scan", err, false)
					continue
				}
				local = append(local, ms(d))
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return all
}

// serverValues reads the server's own request metrics and spans.
// scanSendMS are the client's send-to-response /scan latencies over the
// same requests.
func (s *serveRun) serverValues(url string, scanSendMS []float64, v map[string]float64) error {
	var m server.MetricsJSON
	if err := s.getJSON(url+"/metrics?format=json", &m); err != nil {
		return err
	}
	rs := m.Rulesets["nids"]
	v["server.handler_p50_ms"] = float64(rs.Latency.P50NS) / 1e6
	v["server.handler_p99_ms"] = float64(rs.Latency.P99NS) / 1e6
	v["server.pool_wait_p99_ms"] = float64(rs.PoolWait.P99NS) / 1e6
	v["server.sheds"] = float64(rs.Shed.Capacity + rs.Shed.Deadline + rs.Shed.Draining)
	v["server.compile_p50_ms"] = float64(m.Compile.P50NS) / 1e6

	resp, err := s.client.Get(url + "/trace?format=spans")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var poolWait, scan, handler []float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp struct {
			Parent uint64 `json:"parent"`
			Name   string `json:"name"`
			Dur    int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return fmt.Errorf("/trace: %w", err)
		}
		d := float64(sp.Dur) / 1e6
		switch {
		case sp.Name == "pool_wait":
			poolWait = append(poolWait, d)
		case sp.Name == "scan" && sp.Parent != 0:
			scan = append(scan, d)
		case sp.Name == "scan" && sp.Parent == 0:
			handler = append(handler, d)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("/trace: %w", err)
	}
	v["server.pool_wait_span_ms"] = median(poolWait)
	v["server.scan_span_ms"] = median(scan)
	v["server.outside_handler_p50_ms"] = median(scanSendMS) - median(handler)
	return nil
}

func (s *serveRun) getJSON(url string, dst any) error {
	resp, err := s.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// replayLayers replays the compile stages and the per-packet scan layers
// of the served rule set, each call in a span, and reports their medians.
// The compile replay must reproduce the served rule set's compiled shape.
func (s *serveRun) replayLayers(url string, v map[string]float64) error {
	tr := newTracer()
	opts := sunder.DefaultOptions()
	var c *compiled
	for rep := int64(0); rep < 3; rep++ {
		var err error
		if c, err = replayCompile(tr, rep, s.rules, nil, opts); err != nil {
			return err
		}
	}
	var served server.RulesetInfo
	if err := s.getJSON(url+"/rulesets/nids", &served); err != nil {
		return err
	}
	si := served.Info
	s.record("compile replay", c.matchesInfo(si.DeviceStates, si.PUs, si.ReportColumns), false)
	var runner *dfa.Runner
	if c.plan != nil {
		runner = dfa.NewRunner(c.plan, dfa.DefaultConfig())
	}
	var tot coreTotals
	for pass := int64(0); pass < 2; pass++ {
		for i, p := range s.packets {
			op := pass*packetPool + int64(i)
			root := tr.begin("packet", 0, op)
			have := replayCore(tr, root, op, c, p, &tot, pass == 0)
			s.record("core replay", checkCounts(have, s.pktRef[i].want), false)
			if runner != nil {
				replayDFAStep(tr, root, op, runner, p)
			}
			tr.end(root)
		}
	}
	compileValues(tr, c, v)
	coreValues(tr, tot, v)
	v["dfa.step_s"] = tr.medianSeconds("dfa.Runner.Step")
	// The served rule set runs on the nfa device core: no DFA cache, no
	// prefilter, no windows.
	for _, k := range []string{"sunder.emit_s", "dfa.states", "dfa.hit_ratio", "dfa.evictions", "dfa.fallbacks",
		"prefilter.find_s", "prefilter.windows", "prefilter.skip_ratio", "prefilter.useful_window_ratio",
		"sched.window_s", "sched.us_per_window"} {
		v[k] = 0
	}
	return tr.write(s.cfg.spans)
}

// nidsWords draws n distinct lowercase tokens of fixed lengths; the rule
// set's shape (and so its size) does not depend on the seed, only the
// bytes it matches do.
func nidsWords(rng *rand.Rand, n int) []string {
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		w := randWord(rng, 5)
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// ruleFamilies are the NIDS rule shapes, each filled with one seeded
// 5-letter word w: request paths, headers, SQL injection tokens, byte
// signatures written as hex escapes, and command injection with bounded
// classes. instance writes one input that the rule matches.
var ruleFamilies = []struct {
	expr     func(w string) string
	instance func(rng *rand.Rand, w string) string
}{
	{
		func(w string) string { return w + `/[a-z0-9_]{2,4}\.(php|cgi)` },
		func(rng *rand.Rand, w string) string { return "GET /" + w + "/" + randWord(rng, 4) + ".cgi" },
	},
	{
		func(w string) string { return `(?i)` + w + `-id: [a-z0-9]{4,8}\r\n` },
		func(rng *rand.Rand, w string) string { return "X-" + w + "-Id: " + randWord(rng, 6) + "\r\n" },
	},
	{
		func(w string) string { return `(?i)union\s+select\s+` + w },
		func(rng *rand.Rand, w string) string { return "UNION SELECT " + w },
	},
	{
		func(w string) string { return hexEscape(w) + `[\x00-\x1f]{2}\xeb` },
		func(rng *rand.Rand, w string) string { return w + "\x01\x02\xeb" },
	},
	{
		func(w string) string { return w + `=[a-z]{1,6}[;|&](cat|rm|wget) ` },
		func(rng *rand.Rand, w string) string { return w + "=" + randWord(rng, 3) + ";cat " },
	},
}

func hexEscape(w string) string {
	var b bytes.Buffer
	for i := 0; i < len(w); i++ {
		fmt.Fprintf(&b, `\x%02x`, w[i])
	}
	return b.String()
}

// nidsRules builds one rule per word, cycling through the families.
func nidsRules(words []string) []sunder.Pattern {
	out := make([]sunder.Pattern, len(words))
	for i, w := range words {
		out[i] = sunder.Pattern{Expr: ruleFamilies[i%len(ruleFamilies)].expr(w), Code: int32(i + 1)}
	}
	return out
}

// nidsVariant is rules with one rule's word replaced: a rule set new to the
// compile cache.
func nidsVariant(rng *rand.Rand, rules []sunder.Pattern) []sunder.Pattern {
	out := slices.Clone(rules)
	i := rng.Intn(len(out))
	out[i].Expr = ruleFamilies[i%len(ruleFamilies)].expr(randWord(rng, 5))
	return out
}

// httpNoise is the background traffic an attack string is planted into.
var httpNoise = []string{
	"GET /index.html HTTP/1.1\r\n", "Host: www.example.com\r\n", "Accept: */*\r\n",
	"User-Agent: Mozilla/5.0\r\n", "Cookie: session=", "Content-Type: text/html\r\n",
	"<html><body>", "</body></html>", "select a from b where c = d ", "the quick brown fox ",
}

// nidsPacket builds n bytes of HTTP-like traffic with planted attack
// strings, each matching the rule built from a random word.
func nidsPacket(rng *rand.Rand, words []string, n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		if rng.Intn(24) == 0 {
			i := rng.Intn(len(words))
			b.WriteString(ruleFamilies[i%len(ruleFamilies)].instance(rng, words[i]))
			continue
		}
		b.WriteString(httpNoise[rng.Intn(len(httpNoise))])
		if rng.Intn(3) == 0 {
			b.WriteString(randWord(rng, 1+rng.Intn(8)))
			b.WriteByte(' ')
		}
	}
	return b.Bytes()[:n]
}
