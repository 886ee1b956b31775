package sunder

import (
	"strings"
	"testing"
)

// foldInput interleaves case-mangled matches of the case-insensitive
// patterns below with filler, exercising hits the exact-literal prefilter
// would miss.
func foldInput() []byte {
	var b strings.Builder
	filler := "the quick brown fox jumps over the lazy dog 0123456789 "
	plants := []string{
		"SELECT-FROM-WHERE", "select-from-where", "SeLeCt-FrOm-WhErE",
		"DELETE", "dElEtE", "InSeRt", "update",
	}
	for i := 0; i < 40; i++ {
		b.WriteString(filler)
		b.WriteString(plants[i%len(plants)])
	}
	b.WriteString(filler)
	return []byte(b.String())
}

// TestPrefilterFoldDifferential proves the case-folded prefilter is
// observably invisible: (?i) patterns whose exact variant expansion blows
// the literal caps compile to a folded literal set, and the filtered
// engine matches the unfiltered one byte for byte across the sequential,
// parallel and streaming paths.
func TestPrefilterFoldDifferential(t *testing.T) {
	patterns := []Pattern{
		{Expr: "(?i)select-from-where", Code: 1},
		{Expr: "(?i)(delete|insert|update)", Code: 2},
	}
	input := foldInput()

	base, err := Compile(patterns, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	filt, err := Compile(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := filt.Info().PrefilterStrategy; !strings.HasSuffix(st, "+fold") {
		t.Fatalf("prefilter strategy = %q, want a folded scanner", st)
	}
	for _, l := range filt.Info().PrefilterLiterals {
		if l != strings.ToLower(l) {
			t.Fatalf("literal %q not canonical lowercase", l)
		}
	}

	bseq, err := base.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(bseq.Matches) == 0 {
		t.Fatal("fold input produced no matches; test is vacuous")
	}
	fseq, err := filt.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	comparePrefiltered(t, "fold/seq", bseq, fseq)
	if fseq.Stats.SkippedCycles == 0 {
		t.Error("folded prefilter skipped nothing; filter not engaged")
	}

	for _, nw := range []int{1, 4} {
		fpar, err := filt.ScanParallel(input, ScanOptions{Workers: nw})
		if err != nil {
			t.Fatal(err)
		}
		comparePrefiltered(t, "fold/par", bseq, fpar)
	}

	for _, chunk := range []int{1, 13, 97} {
		var got []Match
		st, err := filt.Clone().NewStream(func(m Match) { got = append(got, m) })
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
		if !matchesEqual(bseq.Matches, got) {
			t.Errorf("fold/stream chunk=%d: matches diverged (%d vs %d)",
				chunk, len(bseq.Matches), len(got))
		}
		if stats.Reports != bseq.Stats.Reports || stats.ReportCycles != bseq.Stats.ReportCycles {
			t.Errorf("fold/stream chunk=%d: reports %d/%d, want %d/%d",
				chunk, stats.Reports, stats.ReportCycles,
				bseq.Stats.Reports, bseq.Stats.ReportCycles)
		}
	}
}

// TestPrefilterFoldExactStaysExact pins that case-sensitive rule sets keep
// the exact scanner: no fold marker, literals verbatim.
func TestPrefilterFoldExactStaysExact(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: "Needle", Code: 1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Info().PrefilterStrategy; strings.Contains(st, "fold") {
		t.Fatalf("case-sensitive pattern got folded strategy %q", st)
	}
	out, err := eng.Scan([]byte("..needle..NEEDLE..Needle.."))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) != 1 {
		t.Fatalf("exact scan found %d matches, want 1", len(out.Matches))
	}
}
