package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"sunder"
	"sunder/internal/regex"
	"sunder/internal/telemetry"
)

func TestNearestRankAgreesWithTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 60; n++ {
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = rng.Int63n(1000)
		}
		slices.Sort(ints)
		floats := make([]float64, n)
		for i, x := range ints {
			floats[i] = float64(x)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := nearestRank(floats, q), float64(telemetry.NearestRank(ints, q)); got != want {
				t.Fatalf("n=%d q=%v: nearestRank %v, telemetry.NearestRank %v", n, q, got, want)
			}
		}
	}
	if nearestRank(nil, 0.5) != 0 {
		t.Fatal("nearestRank of no samples is not 0")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 10},
	}
	fillSelfTimes(spans)
	want := map[string]int64{"root": 100 - 40 - 10, "a": 20, "b": 30 - 10, "c": 30, "d": 10, "other": 10}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	var off *tracer
	off.timed("x", 0, 0, func() {}) // a nil tracer records nothing
	if off.seconds("x") != nil {
		t.Fatal("nil tracer returned spans")
	}
	tr := newTracer()
	root := tr.begin("round", 0, 7)
	tr.timed("child", root, 7, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if d := tr.medianSeconds("child"); d < 0.001 {
		t.Fatalf("child span lasted %vs, want at least 1ms", d)
	}
}

// testReference builds a reference for two rules on a small input; both
// rules can report at one position, so order within it is free.
func testReference(t *testing.T) (*reference, *sunder.Engine, []byte) {
	t.Helper()
	rules := []sunder.Pattern{{Expr: "ab", Code: 1}, {Expr: "[a-z]b", Code: 2}, {Expr: "bcd", Code: 3}}
	nfa, err := regex.CompileSet(regexPatterns(rules))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("xxabcdxxabxxzbcdxx")
	ref, err := newReference(nfa, input, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sunder.Compile(rules, sunder.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ref, eng, input
}

func TestOracleAcceptsEngineAndRejectsDroppedOrShiftedMatch(t *testing.T) {
	ref, eng, input := testReference(t)
	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	have := statsCounts(res.Stats)
	var c checker
	if err := c.check(ref, appendKeys(nil, res.Matches), have); err != nil {
		t.Fatalf("engine output rejected: %v", err)
	}
	if len(ref.ordered) < 3 {
		t.Fatalf("reference has %d matches; the test needs at least 3", len(ref.ordered))
	}

	swapped := slices.Clone(ref.ordered)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	c = checker{}
	if err := c.check(ref, swapped, have); err != nil || c.divergent != 1 {
		t.Fatalf("reordered matches: err %v, divergent %d; want accepted as order-divergent", err, c.divergent)
	}

	dropped := slices.Clone(ref.ordered[1:])
	if err := c.check(ref, dropped, have); err == nil {
		t.Fatal("dropped match accepted")
	}
	shifted := slices.Clone(ref.ordered)
	shifted[2] += 1 << 32 // one byte later
	if err := c.check(ref, shifted, have); err == nil {
		t.Fatal("shifted match accepted")
	}
	recoded := slices.Clone(ref.ordered)
	recoded[2]++ // same position, another rule
	if err := c.check(ref, recoded, have); err == nil {
		t.Fatal("match with the wrong code accepted")
	}
	wrong := have
	wrong.Reports++
	if err := c.check(ref, slices.Clone(ref.ordered), wrong); err == nil {
		t.Fatal("wrong report count accepted")
	}
}

func TestOpenLoopLatencyCountsStallFromScheduledTime(t *testing.T) {
	const gap = 10 * time.Millisecond
	const stall = 150 * time.Millisecond
	var sched []job
	for i := 0; i < 5; i++ {
		sched = append(sched, job{at: time.Duration(i) * gap, idx: i})
	}
	out := runOpenLoop(sched, 1, func(j job) time.Duration {
		if j.idx == 0 {
			time.Sleep(stall) // the server stalls on the first request
		}
		return time.Millisecond
	})
	if len(out) != len(sched) {
		t.Fatalf("%d timings for %d jobs", len(out), len(sched))
	}
	for _, tm := range out[1:] {
		// Each later request waited for the stall to clear: its latency
		// runs from its due time, not from when it was finally sent.
		if min := stall - tm.at; tm.latency < min {
			t.Errorf("job %d: latency %v, want at least %v", tm.idx, tm.latency, min)
		}
		// The wait was the server's, not the generator's.
		if tm.lag > 20*time.Millisecond {
			t.Errorf("job %d: generator lag %v includes the backlog", tm.idx, tm.lag)
		}
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), the benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, perLayerMetrics)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}
