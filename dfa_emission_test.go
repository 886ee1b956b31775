package sunder

import (
	"runtime"
	"testing"

	"sunder/internal/workload"
)

// dfaOrderWorkloads are the rule sets of the cache-history battery: Snort
// is report-dense, Brill has many report codes per position, and SPM
// thrashes the DFA cache into the blowup fallback.
var dfaOrderWorkloads = []string{"Snort", "Brill", "SPM"}

// streamDFA feeds input to a stream on eng in chunks and returns the
// delivered matches and the closing Stats.
func streamDFA(t *testing.T, eng *Engine, input []byte, chunk int) ([]Match, Stats) {
	t.Helper()
	var got []Match
	st, err := eng.NewStream(func(m Match) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(input); off += chunk {
		if _, err := st.Write(input[off:min(off+chunk, len(input))]); err != nil {
			t.Fatal(err)
		}
	}
	return got, st.Close()
}

// ascending reports whether ms is in ascending (Position, Code) order.
func ascending(ms []Match) bool {
	for i := 1; i < len(ms); i++ {
		a, b := ms[i-1], ms[i]
		if a.Position > b.Position || (a.Position == b.Position && a.Code > b.Code) {
			return false
		}
	}
	return true
}

// TestDFAOrderIndependentOfCacheHistory pins the dfa backend's output
// contract: matches come out in ascending (Position, Code) order, and a
// scan of input B returns exactly the same slice whether the engine is a
// fresh clone or its DFA cache was first warmed by a different input A —
// on Scan, Stream, ScanBatch and ScanParallel. The same slice must come
// from the NFA core and from the fault-guarded Scan and Stream.
func TestDFAOrderIndependentOfCacheHistory(t *testing.T) {
	const n = 6000
	for _, name := range dfaOrderWorkloads {
		w, err := workload.Get(name, workload.DefaultScale, 2*n)
		if err != nil {
			t.Fatal(err)
		}
		warmIn, in := w.Input[:n], w.Input[n:]
		eng := compileDFA(t, w)
		nfa, err := CompileAutomaton(w.Automaton, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}

		fresh, err := eng.Clone().Scan(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(fresh.Matches) == 0 {
			t.Fatalf("%s: no matches; the battery needs a reporting input", name)
		}
		if !ascending(fresh.Matches) {
			t.Errorf("%s: dfa matches not in ascending (Position, Code) order", name)
		}
		base, err := nfa.Scan(in)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(base.Matches, fresh.Matches) {
			t.Errorf("%s: dfa matches differ from the nfa core's", name)
		}
		if fresh.Stats.Reports != base.Stats.Reports || fresh.Stats.ReportCycles != base.Stats.ReportCycles {
			t.Errorf("%s: reports %d/%d, nfa %d/%d", name, fresh.Stats.Reports,
				fresh.Stats.ReportCycles, base.Stats.Reports, base.Stats.ReportCycles)
		}
		check := func(label string, got []Match) {
			t.Helper()
			if !matchesEqual(got, fresh.Matches) {
				t.Errorf("%s/%s: %d matches differ in content or order from a fresh Scan's %d",
					name, label, len(got), len(fresh.Matches))
			}
		}

		warm := eng.Clone()
		if _, err := warm.Scan(warmIn); err != nil {
			t.Fatal(err)
		}
		res, err := warm.Scan(in)
		if err != nil {
			t.Fatal(err)
		}
		check("warm Scan", res.Matches)
		if res.Stats != fresh.Stats {
			t.Errorf("%s: warm Scan stats %+v, fresh %+v", name, res.Stats, fresh.Stats)
		}
		if name == "SPM" && warm.DFAStats().Fallbacks == 0 {
			t.Errorf("SPM: no blowup fallback; the battery must cover fallback emission")
		}

		for _, chunk := range []int{1, 13, 1460} {
			got, _ := streamDFA(t, eng.Clone(), in, chunk)
			check("fresh Stream", got)
			warmed := eng.Clone()
			streamDFA(t, warmed, warmIn, chunk)
			got, st := streamDFA(t, warmed, in, chunk)
			check("warm Stream", got)
			if st.Reports != fresh.Stats.Reports || st.ReportCycles != fresh.Stats.ReportCycles {
				t.Errorf("%s: stream chunk %d reports %d/%d, want %d/%d", name, chunk,
					st.Reports, st.ReportCycles, fresh.Stats.Reports, fresh.Stats.ReportCycles)
			}
		}

		// One worker serves the batch in order, so its runner is warmed by
		// the first input when it reaches the second.
		batch, err := eng.ScanBatch([][]byte{warmIn, in, in}, ScanOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		check("ScanBatch after warm-up", batch[1].Matches)
		check("ScanBatch repeated", batch[2].Matches)
		par, err := warm.ScanParallel(in, ScanOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		check("ScanParallel", par.Matches)

		// A detection-only fault policy routes through the recovery guard,
		// whose committed report cycles are the emission rows too.
		guarded := eng.Clone()
		pol := DefaultFaultPolicy()
		if err := guarded.SetFaultPolicy(&pol); err != nil {
			t.Fatal(err)
		}
		res, err = guarded.Scan(in)
		if err != nil {
			t.Fatal(err)
		}
		check("guarded Scan", res.Matches)
		got, _ := streamDFA(t, guarded, in, 13)
		check("guarded Stream", got)
	}
}

// compileDFA compiles a workload's automaton on the dfa backend.
func compileDFA(t *testing.T, w *workload.Workload) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Backend = "dfa"
	eng, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDFAStreamWriteZeroAlloc pins the warm streaming hot path: once the
// DFA cache holds the input's states, a Stream.Write on the dfa backend
// steps cached transitions and hands out precomputed emission rows
// without allocating, however many matches it delivers.
func TestDFAStreamWriteZeroAlloc(t *testing.T) {
	w := workload.MustGet("Snort", workload.DefaultScale, 1460)
	eng := compileDFA(t, w)
	matches := 0
	st, err := eng.NewStream(func(Match) { matches++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := st.Write(w.Input); err != nil {
			t.Fatal(err)
		}
	}
	if matches == 0 {
		t.Fatal("the pinned write must deliver matches")
	}
	perWrite := uint64(matches / 8)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.Write(w.Input); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm dfa Stream.Write allocates %v per call, want 0", allocs)
	}

	// A stats-only stream discards its matches as they occur: holding
	// them would take 16 bytes a match for the life of the stream, in
	// chunks too few to show in the rounded per-call count.
	st.Close()
	quiet, err := eng.NewStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	write := func() {
		if _, err := quiet.Write(w.Input); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if allocs = testing.AllocsPerRun(100, write); allocs != 0 {
		t.Fatalf("warm dfa Stream.Write with a nil callback allocates %v per call, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 100*perWrite*16/2 {
		t.Fatalf("100 warm writes with a nil callback allocated %d bytes, about %d matches' worth", grown, grown/16)
	}
	if quiet.Close().Reports == 0 {
		t.Fatal("the stats-only stream must still count its reports")
	}
}

// TestDFAScanAllocsBounded pins warm dfa Scan's match assembly: 64 times
// the matches may add at most the log2(64) chunk doublings in allocations
// (plus one for rounding), never one per match or per regrowth of a single
// slice.
func TestDFAScanAllocsBounded(t *testing.T) {
	w := workload.MustGet("Snort", workload.DefaultScale, 64*16384)
	eng := compileDFA(t, w)
	allocs := func(input []byte) (float64, int) {
		res, err := eng.Scan(input) // warm the cache for this input
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := eng.Scan(input); err != nil {
				t.Fatal(err)
			}
		}), len(res.Matches)
	}
	small, smallN := allocs(w.Input[:16384])
	large, largeN := allocs(w.Input)
	t.Logf("warm dfa Scan: %v allocs for %d matches, %v for %d", small, smallN, large, largeN)
	if largeN < 32*smallN {
		t.Fatalf("the large input must carry far more matches: %d vs %d", largeN, smallN)
	}
	if large > small+7 {
		t.Fatalf("warm dfa Scan allocations grow with matches: %v for %d matches, %v for %d",
			small, smallN, large, largeN)
	}
}
