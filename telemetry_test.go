package sunder

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// denseEngine compiles a pattern that reports on every 'a' byte without
// the FIFO drain, so report regions fill and flush deterministically.
func denseEngine(t *testing.T) (*Engine, []byte) {
	t.Helper()
	eng, err := Compile([]Pattern{{Expr: `a`, Code: 1}}, Options{Rate: 4, FIFO: false})
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("a"), 8192)
	return eng, input
}

func TestScanResultPerPU(t *testing.T) {
	eng, input := denseEngine(t)
	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerPU) != eng.Info().PUs {
		t.Fatalf("PerPU has %d entries, engine has %d PUs", len(res.PerPU), eng.Info().PUs)
	}
	var flushes, stalls, entries int64
	for i, pu := range res.PerPU {
		if pu.PU != i {
			t.Errorf("PerPU[%d].PU = %d", i, pu.PU)
		}
		flushes += pu.Flushes
		stalls += pu.StallCycles
		entries += pu.ReportEntries
	}
	if flushes != res.Stats.Flushes {
		t.Errorf("per-PU flushes %d != Stats.Flushes %d", flushes, res.Stats.Flushes)
	}
	if stalls != res.Stats.StallCycles {
		t.Errorf("per-PU stalls %d != Stats.StallCycles %d", stalls, res.Stats.StallCycles)
	}
	if res.Stats.Flushes == 0 || entries == 0 {
		t.Fatalf("dense scan did not exercise the report region (flushes=%d entries=%d)",
			res.Stats.Flushes, entries)
	}
}

func TestTelemetryMetricsAndTrace(t *testing.T) {
	eng, input := denseEngine(t)
	tel := NewTelemetry(TelemetryOptions{Trace: true})
	eng.SetTelemetry(tel)
	defer eng.SetTelemetry(nil)

	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}

	var metrics bytes.Buffer
	if err := tel.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	out := metrics.String()
	for _, want := range []string{
		"device_kernel_cycles", "device_stall_cycles", "device_reports",
		`pu_flushes{pu="0"}`, "pu_flushes_total", "pu_stall_cycles_total",
		"report_region_occupancy_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}

	// Aggregate lines must agree with ScanResult.Stats.
	checkAggregates(t, "Scan", out, map[string]int64{
		"device_kernel_cycles":  res.Stats.KernelCycles,
		"device_stall_cycles":   res.Stats.StallCycles,
		"device_reports":        res.Stats.Reports,
		"device_report_cycles":  res.Stats.ReportCycles,
		"pu_flushes_total":      res.Stats.Flushes,
		"pu_stall_cycles_total": res.Stats.StallCycles,
	})

	// Every entry point that steps the device counts each emission row
	// once: device_reports and device_report_cycles equal the Stats it
	// returns — sharded, windowed, streamed in any chunking, and guarded
	// (rows counted when their window commits).
	pats := []Pattern{{Expr: `needle`, Code: 1}, {Expr: `abab`, Code: 2}, {Expr: `ab`, Code: 3}, {Expr: `xyz{1,2}y`, Code: 4}}
	in := streamInput(8192, rand.New(rand.NewSource(7)))
	stream := func(chunk int) func(*Engine) (Stats, error) {
		return func(eng *Engine) (Stats, error) {
			_, st := feedAndClose(t, eng, in, func(int) int { return chunk })
			return st, nil
		}
	}
	scan := func(eng *Engine) (Stats, error) {
		r, err := eng.Scan(in)
		if err != nil {
			return Stats{}, err
		}
		return r.Stats, nil
	}
	prefiltered := DefaultOptions()
	prefiltered.Prefilter = PrefilterOn
	for _, tc := range []struct {
		name    string
		opts    Options
		guarded bool
		run     func(*Engine) (Stats, error)
	}{
		{name: "Scan", run: scan},
		{name: "ScanBatch", run: func(eng *Engine) (Stats, error) {
			rs, err := eng.ScanBatch([][]byte{in, in[:5000]}, ScanOptions{Workers: 2})
			if err != nil {
				return Stats{}, err
			}
			st := rs[0].Stats
			st.Reports += rs[1].Stats.Reports
			st.ReportCycles += rs[1].Stats.ReportCycles
			return st, nil
		}},
		{name: "ScanParallel", run: func(eng *Engine) (Stats, error) {
			r, err := eng.ScanParallel(in, ScanOptions{Workers: 2})
			if err != nil {
				return Stats{}, err
			}
			return r.Stats, nil
		}},
		{name: "Stream/1", run: stream(1)},
		{name: "Stream/1460", run: stream(1460)},
		{name: "prefilter/Scan", opts: prefiltered, run: scan},
		{name: "prefilter/Stream", opts: prefiltered, run: stream(1460)},
		{name: "guarded/Scan", guarded: true, run: scan},
		{name: "guarded/Stream", guarded: true, run: stream(1460)},
	} {
		if tc.opts == (Options{}) {
			tc.opts = DefaultOptions()
		}
		eng, err := Compile(pats, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if tc.guarded {
			pol := DefaultFaultPolicy()
			if err := eng.SetFaultPolicy(&pol); err != nil {
				t.Fatal(err)
			}
		}
		tel := NewTelemetry(TelemetryOptions{})
		eng.SetTelemetry(tel)
		st, err := tc.run(eng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Reports == 0 || (tc.opts.Prefilter == PrefilterOn && st.SkippedCycles == 0) {
			t.Fatalf("%s: route not exercised: %+v", tc.name, st)
		}
		var buf bytes.Buffer
		if err := tel.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		checkAggregates(t, tc.name, buf.String(), map[string]int64{
			"device_reports":       st.Reports,
			"device_report_cycles": st.ReportCycles,
		})
	}

	// The Chrome trace must be valid JSON with flush and report events
	// carrying cycle timestamps.
	var trace bytes.Buffer
	if err := tel.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if name, ok := ev["name"].(string); ok {
			kinds[name]++
		}
	}
	if kinds["report_write"] == 0 || kinds["flush"] == 0 {
		t.Errorf("trace kinds = %v, want report_write and flush events", kinds)
	}

	if n, dropped := tel.TraceEvents(); n == 0 || dropped != 0 {
		t.Errorf("TraceEvents = %d buffered, %d dropped", n, dropped)
	}

	// JSONL: one valid object per line.
	var jsonl bytes.Buffer
	if err := tel.WriteTraceJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty JSONL trace")
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("JSONL line not valid JSON: %v", err)
	}

	// Reset clears; a second scan repopulates identically.
	tel.Reset()
	if n, _ := tel.TraceEvents(); n != 0 {
		t.Errorf("trace not cleared by Reset: %d events", n)
	}
	if _, err := eng.Scan(input); err != nil {
		t.Fatal(err)
	}
	var metrics2 bytes.Buffer
	if err := tel.WriteMetrics(&metrics2); err != nil {
		t.Fatal(err)
	}
	if metrics2.String() != out {
		t.Error("second identical scan after Reset produced different metrics")
	}
}

// checkAggregates requires each named aggregate line of a metrics dump to
// read its wanted value.
func checkAggregates(t *testing.T, name, dump string, want map[string]int64) {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if w, ok := want[fields[0]]; ok {
			got, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: bad metric line %q", name, line)
			}
			if got != w {
				t.Errorf("%s: %s = %d, want %d", name, fields[0], got, w)
			}
			delete(want, fields[0])
		}
	}
	if len(want) != 0 {
		t.Errorf("%s: metrics dump missing aggregate lines: %v", name, want)
	}
}

func TestTelemetryDisabledPathUnchanged(t *testing.T) {
	eng, input := denseEngine(t)
	base, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryOptions{Trace: true})
	eng.SetTelemetry(tel)
	withTel, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetTelemetry(nil)
	after, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats != withTel.Stats || base.Stats != after.Stats {
		t.Errorf("stats differ across telemetry attach/detach:\n%+v\n%+v\n%+v",
			base.Stats, withTel.Stats, after.Stats)
	}
	// Detached scans must not feed the collector.
	n1, _ := tel.TraceEvents()
	if _, err := eng.Scan(input); err != nil {
		t.Fatal(err)
	}
	if n2, _ := tel.TraceEvents(); n2 != n1 {
		t.Errorf("detached scan recorded %d new events", n2-n1)
	}
}

func TestStatsRenderers(t *testing.T) {
	s := Stats{KernelCycles: 100, StallCycles: 25, Flushes: 3, Reports: 7, ReportCycles: 5}
	str := s.String()
	for _, want := range []string{"100 kernel", "25 stall", "1.2500x", "7 reports", "3 flushes"} {
		if !strings.Contains(str, want) {
			t.Errorf("Stats.String() = %q missing %q", str, want)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf, 16); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"overhead 1.2500x", "Gbit/s", "7 reports in 5 report cycles"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("WriteText output %q missing %q", buf.String(), want)
		}
	}
}
