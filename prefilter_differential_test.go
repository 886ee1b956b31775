package sunder

import (
	"testing"

	"sunder/internal/workload"
)

// comparePrefiltered asserts the prefiltered result is observably
// identical to the unfiltered one: same matches, Reports and ReportCycles,
// and the filtered kernel + skipped cycles reconstruct the unfiltered
// kernel exactly (every cycle is either executed or provably match-free).
func comparePrefiltered(t *testing.T, label string, base, filt *ScanResult) {
	t.Helper()
	if !matchesEqual(base.Matches, filt.Matches) {
		t.Errorf("%s: matches diverged (%d unfiltered vs %d filtered)",
			label, len(base.Matches), len(filt.Matches))
	}
	if base.Stats.Reports != filt.Stats.Reports || base.Stats.ReportCycles != filt.Stats.ReportCycles {
		t.Errorf("%s: reports %d/%d filtered vs %d/%d unfiltered",
			label, filt.Stats.Reports, filt.Stats.ReportCycles,
			base.Stats.Reports, base.Stats.ReportCycles)
	}
	if got := filt.Stats.KernelCycles + filt.Stats.SkippedCycles; got != base.Stats.KernelCycles {
		t.Errorf("%s: kernel %d + skipped %d = %d, want unfiltered kernel %d",
			label, filt.Stats.KernelCycles, filt.Stats.SkippedCycles, got, base.Stats.KernelCycles)
	}
}

// TestPrefilterDifferential is the acceptance battery: for every benchmark
// workload, an engine compiled with PrefilterOn must be observably
// invisible on the sequential, parallel and streaming scan paths. Rule
// sets without usable literals (wide-class automata) take the no-filter
// verdict and are exercised as the pass-through case.
func TestPrefilterDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full 19-benchmark differential in long mode only")
	}
	const inputLen = 6000
	workers := []int{1, 2, 4, 8}
	chunks := []int{1, 13, 97}
	for _, name := range workload.Names() {
		w, err := workload.Get(name, workload.DefaultScale, inputLen)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		base, err := CompileAutomaton(w.Automaton, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts.Prefilter = PrefilterOn
		filt, err := CompileAutomaton(w.Automaton, opts)
		if err != nil {
			t.Fatalf("%s (prefiltered): %v", name, err)
		}
		t.Logf("%s: prefilter strategy %s (%d literals)",
			name, filt.Info().PrefilterStrategy, len(filt.Info().PrefilterLiterals))

		bseq, err := base.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		fseq, err := filt.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		comparePrefiltered(t, name+"/seq", bseq, fseq)

		for _, nw := range workers {
			fpar, err := filt.ScanParallel(w.Input, ScanOptions{Workers: nw})
			if err != nil {
				t.Fatal(err)
			}
			comparePrefiltered(t, name+"/par", bseq, fpar)
		}

		for _, chunk := range chunks {
			var got []Match
			st, err := filt.Clone().NewStream(func(m Match) { got = append(got, m) })
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(w.Input); off += chunk {
				end := off + chunk
				if end > len(w.Input) {
					end = len(w.Input)
				}
				if _, err := st.Write(w.Input[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			stats := st.Close()
			label := name + "/stream"
			if !matchesEqual(bseq.Matches, got) {
				t.Errorf("%s chunk=%d: matches diverged (%d vs %d)",
					label, chunk, len(bseq.Matches), len(got))
			}
			if stats.Reports != bseq.Stats.Reports || stats.ReportCycles != bseq.Stats.ReportCycles {
				t.Errorf("%s chunk=%d: reports %d/%d, want %d/%d",
					label, chunk, stats.Reports, stats.ReportCycles,
					bseq.Stats.Reports, bseq.Stats.ReportCycles)
			}
			if got := stats.KernelCycles + stats.SkippedCycles; got != bseq.Stats.KernelCycles {
				t.Errorf("%s chunk=%d: kernel %d + skipped %d != %d",
					label, chunk, stats.KernelCycles, stats.SkippedCycles, bseq.Stats.KernelCycles)
			}
		}
	}
}

// TestPrefilterNoLiteralVerdict pins the conservative verdict: a rule set
// whose matches need no literal (a bare wide class) must disable the
// filter, report why, and scan exactly like an unfiltered engine.
func TestPrefilterNoLiteralVerdict(t *testing.T) {
	patterns := []Pattern{{Expr: `needle`, Code: 1}, {Expr: `[a-z]`, Code: 2}}
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	filt, err := Compile(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if filt.art.pre.enabled() {
		t.Fatalf("expected no-filter verdict, got strategy %s", filt.Info().PrefilterStrategy)
	}
	info := filt.Info()
	if info.PrefilterStrategy == "off" || info.PrefilterLiterals != nil {
		t.Errorf("Info must carry the disable reason, got %q / %q",
			info.PrefilterStrategy, info.PrefilterLiterals)
	}
	base, err := Compile(patterns, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("a needle in a HAYSTACK 0123 xyz")
	bres, err := base.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := filt.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	comparePrefiltered(t, "no-filter", bres, fres)
	if fres.Stats.SkippedCycles != 0 || fres.Stats.PrefilterWindows != 0 {
		t.Errorf("disabled filter must not report windows/skips: %+v", fres.Stats)
	}
}

// TestPrefilterSkipsNoMatchInput pins the fast path itself: on an input
// with no literal occurrence the whole scan is skipped.
func TestPrefilterSkipsNoMatchInput(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: `EXPLOIT[0-9]`, Code: 7}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.art.pre.enabled() {
		t.Fatalf("filter not enabled: %s", eng.Info().PrefilterStrategy)
	}
	input := make([]byte, 100000)
	for i := range input {
		input[i] = byte('a' + i%23)
	}
	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || res.Stats.Reports != 0 {
		t.Fatalf("unexpected matches on literal-free input: %+v", res.Stats)
	}
	if res.Stats.KernelCycles != 0 || res.Stats.SkippedCycles == 0 {
		t.Fatalf("expected a full skip, got %+v", res.Stats)
	}
	if len(res.PerPU) == 0 {
		t.Fatal("skipped scan must still shape PerPU")
	}
}
