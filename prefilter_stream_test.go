package sunder

import (
	"errors"
	"testing"
)

// TestPrefilterStreamChunkEdges is the window-straddle regression: a
// candidate window overlapping a chunk boundary must carry its warm-up
// state into the next chunk. Literals are planted exactly at every chunk
// edge and one byte to each side, for every chunk size the stream tests
// use; matches and statistics must equal the whole-input Scan regardless.
func TestPrefilterStreamChunkEdges(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{
		{Expr: `EDGE[0-9]`, Code: 1},
		{Expr: `mark\d\d`, Code: 2},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.art.pre.enabled() {
		t.Fatalf("filter not enabled: %s", eng.Info().PrefilterStrategy)
	}
	for _, chunk := range []int{1, 2, 7, 13, 64, 97} {
		input := make([]byte, 6*chunk+5)
		for i := range input {
			input[i] = '.'
		}
		// Plant a literal starting at a boundary, one straddling it from
		// one byte before, and one ending exactly on it.
		plant := func(at int, s string) {
			if at >= 0 && at+len(s) <= len(input) {
				copy(input[at:], s)
			}
		}
		plant(chunk, "EDGE1")
		plant(3*chunk-1, "mark22")
		plant(5*chunk-len("EDGE3"), "EDGE3")

		want, err := eng.Clone().Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		var got []Match
		st, err := eng.Clone().NewStream(func(m Match) { got = append(got, m) })
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(input); off += chunk {
			end := off + chunk
			if end > len(input) {
				end = len(input)
			}
			if _, err := st.Write(input[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		stats := st.Close()
		if !matchesEqual(want.Matches, got) {
			t.Errorf("chunk=%d: stream matches %v != scan %v", chunk, got, want.Matches)
		}
		if stats.Reports != want.Stats.Reports || stats.ReportCycles != want.Stats.ReportCycles {
			t.Errorf("chunk=%d: reports %d/%d, want %d/%d",
				chunk, stats.Reports, stats.ReportCycles, want.Stats.Reports, want.Stats.ReportCycles)
		}
		if got := stats.KernelCycles + stats.SkippedCycles; got != want.Stats.KernelCycles+want.Stats.SkippedCycles {
			t.Errorf("chunk=%d: cycle accounting %d, want %d", chunk, got,
				want.Stats.KernelCycles+want.Stats.SkippedCycles)
		}
		if len(want.Matches) == 0 {
			t.Fatalf("chunk=%d: test is vacuous, no matches planted", chunk)
		}
	}
}

// TestPrefilterStreamTailLiteral pins the pad-tail hazard on the filtered
// stream: a literal ending exactly at the last input byte, and input whose
// suffix is a literal prefix completed only by the pad, must both produce
// Stats identical to Scan.
func TestPrefilterStreamTailLiteral(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: `tail.`, Code: 9}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{
		"......tailX",   // match ends at the last byte
		"1234567tail",   // literal "tail" at the end; `.` satisfied by pad only
		"odd bytes tai", // literal prefix at the end, odd length
	} {
		want, err := eng.Clone().Scan([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		var got []Match
		st, err := eng.Clone().NewStream(func(m Match) { got = append(got, m) })
		if err != nil {
			t.Fatal(err)
		}
		for i := range input {
			if _, err := st.Write([]byte{input[i]}); err != nil {
				t.Fatal(err)
			}
		}
		stats := st.Close()
		if !matchesEqual(want.Matches, got) {
			t.Errorf("%q: stream matches %v != scan %v", input, got, want.Matches)
		}
		if stats.Reports != want.Stats.Reports || stats.ReportCycles != want.Stats.ReportCycles {
			t.Errorf("%q: reports %d/%d, want %d/%d",
				input, stats.Reports, stats.ReportCycles, want.Stats.Reports, want.Stats.ReportCycles)
		}
	}
}

// TestPrefilterStreamUnboundedDeferred covers the deferred-start path: a
// cyclic pattern (unbounded dependence window) streams correctly both when
// a hit arrives mid-stream and when the stream is hit-free.
func TestPrefilterStreamUnboundedDeferred(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: `begin.*end`, Code: 3}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.art.pre.enabled() {
		t.Fatalf("filter not enabled: %s", eng.Info().PrefilterStrategy)
	}
	if eng.art.pre.bounded {
		t.Fatal("pattern must have an unbounded dependence window")
	}

	input := []byte("xxxx begin middle end yyyy begin-end zz")
	want, err := eng.Clone().Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("vacuous: pattern did not match")
	}
	for _, chunk := range []int{1, 5, 100} {
		var got []Match
		st, err := eng.Clone().NewStream(func(m Match) { got = append(got, m) })
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(input); off += chunk {
			end := off + chunk
			if end > len(input) {
				end = len(input)
			}
			if _, err := st.Write(input[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		stats := st.Close()
		if !matchesEqual(want.Matches, got) {
			t.Errorf("chunk=%d: matches %v != %v", chunk, got, want.Matches)
		}
		if stats.Reports != want.Stats.Reports || stats.ReportCycles != want.Stats.ReportCycles {
			t.Errorf("chunk=%d: reports %d/%d, want %d/%d",
				chunk, stats.Reports, stats.ReportCycles, want.Stats.Reports, want.Stats.ReportCycles)
		}
	}

	// Hit-free stream: everything skipped, zero reports.
	st, err := eng.Clone().NewStream(func(m Match) { t.Errorf("unexpected match %+v", m) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	stats := st.Close()
	if stats.KernelCycles != 0 || stats.SkippedCycles == 0 || stats.Reports != 0 {
		t.Errorf("hit-free deferred stream: %+v", stats)
	}
}

// TestPrefilterStreamDeferredBufferFull pins the deferred-buffer cap: an
// unbounded-window ruleset fed more than maxDeferredUnits units without a
// literal hit must surface ErrDeferredBufferFull from Write (sticky) rather
// than silently degrade, and Close must stay valid and idempotent after it.
func TestPrefilterStreamDeferredBufferFull(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: `begin.*end`, Code: 3}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.art.pre.enabled() || eng.art.pre.bounded {
		t.Fatalf("want engaged unbounded filter, got %s bounded=%v",
			eng.Info().PrefilterStrategy, eng.art.pre.bounded)
	}
	st, err := eng.NewStream(func(m Match) { t.Errorf("unexpected match %+v", m) })
	if err != nil {
		t.Fatal(err)
	}
	// Literal-free filler: > maxDeferredUnits units (su units per byte).
	su := eng.art.nibble.SymbolUnits
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = 'x'
	}
	need := maxDeferredUnits/su + len(chunk)
	var wedged error
	written := 0
	for written < need+len(chunk) {
		_, err := st.Write(chunk)
		if err != nil {
			wedged = err
			break
		}
		written += len(chunk)
	}
	if !errors.Is(wedged, ErrDeferredBufferFull) {
		t.Fatalf("wrote %d bytes (> cap %d units) without ErrDeferredBufferFull; err=%v",
			written, maxDeferredUnits, wedged)
	}
	if !errors.Is(st.Err(), ErrDeferredBufferFull) {
		t.Fatalf("Err() = %v, want ErrDeferredBufferFull", st.Err())
	}
	// Sticky: further writes keep failing with the same error.
	if _, err := st.Write([]byte("more")); !errors.Is(err, ErrDeferredBufferFull) {
		t.Fatalf("post-wedge Write err = %v", err)
	}
	// Close stays valid and idempotent: everything buffered was proven
	// match-free, so it is skipped, and a second Close returns the same.
	first := st.Close()
	if first.KernelCycles != 0 || first.SkippedCycles == 0 || first.Reports != 0 {
		t.Errorf("post-wedge Close stats: %+v", first)
	}
	if again := st.Close(); again != first {
		t.Errorf("Close not idempotent after wedge: %+v != %+v", again, first)
	}
	if _, err := st.Write([]byte("x")); !errors.Is(err, ErrClosedStream) {
		t.Errorf("write after close: %v", err)
	}
}
