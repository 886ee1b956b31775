package sunder

import (
	"testing"

	"sunder/internal/workload"
)

// matchesEqual compares two match slices in exact order: every substrate
// returns ascending (Position, Code), so order is part of the contract.
func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPruneDifferential is the acceptance criterion for compile-time
// pruning: for every benchmark, an engine compiled with Options.Prune must
// produce byte-identical scan results — matches, Reports, ReportCycles and
// KernelCycles — on both the sequential and the parallel scan path.
// (StallCycles and Flushes depend on region layout, which pruning may
// legitimately change.)
func TestPruneDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full 19-benchmark differential in long mode only")
	}
	const inputLen = 6000
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
		opts.Prune = true
		pruned, err := CompileAutomaton(w.Automaton, opts)
		if err != nil {
			t.Fatalf("%s (pruned): %v", name, err)
		}
		if got, want := pruned.Info().PrunedStates, base.Info().DeviceStates-pruned.Info().DeviceStates; got != want {
			t.Errorf("%s: Info().PrunedStates = %d, state delta %d", name, got, want)
		}

		bseq, err := base.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		pseq, err := pruned.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(bseq.Matches, pseq.Matches) {
			t.Errorf("%s: sequential matches diverged after pruning (%d vs %d)",
				name, len(bseq.Matches), len(pseq.Matches))
		}
		if bseq.Stats.Reports != pseq.Stats.Reports ||
			bseq.Stats.ReportCycles != pseq.Stats.ReportCycles ||
			bseq.Stats.KernelCycles != pseq.Stats.KernelCycles {
			t.Errorf("%s: sequential stats diverged: %+v vs %+v", name, bseq.Stats, pseq.Stats)
		}

		bpar, err := base.ScanParallel(w.Input, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		ppar, err := pruned.ScanParallel(w.Input, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(bpar.Matches, ppar.Matches) {
			t.Errorf("%s: parallel matches diverged after pruning (%d vs %d)",
				name, len(bpar.Matches), len(ppar.Matches))
		}
		if bpar.Stats.Reports != ppar.Stats.Reports ||
			bpar.Stats.ReportCycles != ppar.Stats.ReportCycles ||
			bpar.Stats.KernelCycles != ppar.Stats.KernelCycles {
			t.Errorf("%s: parallel stats diverged: %+v vs %+v", name, bpar.Stats, ppar.Stats)
		}
	}
}

// TestPruneOptionShrinksLevenshtein pins that Options.Prune actually
// removes states where dead states exist (the Levenshtein widgets carry
// subsumed insertion variants at rate 4).
func TestPruneOptionShrinksLevenshtein(t *testing.T) {
	w, err := workload.Get("Levenshtein", workload.DefaultScale, 2000)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Prune = true
	eng, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Info().PrunedStates == 0 {
		t.Fatal("expected pruned states on Levenshtein at rate 4, got 0")
	}
}
