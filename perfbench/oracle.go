package main

import (
	"fmt"
	"slices"

	"sunder"
	"sunder/internal/automata"
	"sunder/internal/funcsim"
)

// matchKey packs a match into one comparable word: position high, code low.
func matchKey(pos int64, code int32) uint64 { return uint64(pos)<<32 | uint64(uint32(code)) }

// counts are the Stats fields every substrate must agree on: reports,
// cycles with a report, and device cycles (executed plus skipped by the
// prefilter).
type counts struct {
	Reports      int64
	ReportCycles int64
	Cycles       int64
}

func statsCounts(s sunder.Stats) counts {
	return counts{s.Reports, s.ReportCycles, s.KernelCycles + s.SkippedCycles}
}

// reference is one input's expected output, computed once at set-up by the
// functional simulator on the byte automaton: a path independent of every
// engine substrate (device core, lazy DFA, prefilter windows, shards).
type reference struct {
	ordered []uint64 // matches in the simulator's order
	sorted  []uint64 // the same, ascending
	want    counts
}

// newReference simulates input on the byte automaton. stepBytes is the
// bytes one device cycle consumes; inputs must be a whole number of cycles
// long, so no report can fall in a padded tail.
func newReference(a *automata.Automaton, input []byte, stepBytes int) (*reference, error) {
	if len(input)%stepBytes != 0 {
		return nil, fmt.Errorf("input of %d bytes is not a whole number of %d-byte cycles", len(input), stepBytes)
	}
	r := &reference{want: counts{Cycles: int64(len(input) / stepBytes)}}
	lastCycle := int64(-1)
	funcsim.NewByteSimulator(a).Run(input, funcsim.Options{
		OnReportCycle: func(pos int64, states []automata.StateID) {
			for _, id := range states {
				r.ordered = append(r.ordered, matchKey(pos, a.States[id].ReportCode))
			}
			r.want.Reports += int64(len(states))
			if c := pos / int64(stepBytes); c != lastCycle {
				r.want.ReportCycles++
				lastCycle = c
			}
		},
	})
	r.sorted = slices.Clone(r.ordered)
	slices.Sort(r.sorted)
	return r, nil
}

// checker compares operations with their reference and counts those whose
// matches are right but arrive in another order than the reference's.
// Match order is not yet a documented contract, so such an operation is
// correct; the count keeps the divergence visible by name.
type checker struct {
	divergent int64
}

// check returns an error if got (the operation's match keys, which check
// may reorder) or have differ from the reference as a multiset.
func (c *checker) check(ref *reference, got []uint64, have counts) error {
	if have != ref.want {
		return fmt.Errorf("stats %+v, want %+v", have, ref.want)
	}
	if slices.Equal(got, ref.ordered) {
		return nil
	}
	if len(got) != len(ref.sorted) {
		return fmt.Errorf("%d matches, want %d", len(got), len(ref.sorted))
	}
	slices.Sort(got)
	for i := range got {
		if got[i] != ref.sorted[i] {
			return fmt.Errorf("match %d is (pos %d, code %d), want (pos %d, code %d)", i,
				got[i]>>32, int32(uint32(got[i])), ref.sorted[i]>>32, int32(uint32(ref.sorted[i])))
		}
	}
	c.divergent++
	return nil
}

// appendKeys appends the keys of ms to dst.
func appendKeys(dst []uint64, ms []sunder.Match) []uint64 {
	for _, m := range ms {
		dst = append(dst, matchKey(m.Position, m.Code))
	}
	return dst
}
