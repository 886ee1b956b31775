// Package metastudy measures the meta-engine's backend selection through
// the public façade. It is separate from internal/exp for the same reason
// as prefilterstudy: it imports the sunder package itself, and exp must
// remain importable from the façade's in-package benchmarks without an
// import cycle, so the row type, printer and acceptance gate live in exp
// and only the runner lives here.
package metastudy

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"sunder"
	"sunder/internal/exp"
	"sunder/internal/workload"
)

// MetaStudy compiles every named benchmark under Backend "auto" and every
// forced backend, times each on the benchmark input (best of three), and
// reports auto's choice against the fastest forced backend. Forced "dfa"
// legs that the configuration cannot support are recorded as absent
// (DFANS 0); "auto" and the other backends never fail. A non-empty
// opts.Backend replaces "auto" as the gated leg, so
// `sunder-bench -meta -backend nfa` measures what forcing that backend
// costs against the best choice.
func MetaStudy(opts exp.Options, names []string) ([]exp.MetaRow, error) {
	target := opts.Backend
	if target == "" {
		target = "auto"
	}
	var rows []exp.MetaRow
	for _, name := range names {
		w, err := workload.Get(name, opts.Scale, opts.InputLen)
		if err != nil {
			return nil, err
		}
		compile := func(backend string) (*sunder.Engine, error) {
			o := sunder.DefaultOptions()
			o.Backend = backend
			return sunder.CompileAutomaton(w.Automaton, o)
		}
		base, err := compile("nfa")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		auto, err := compile(target)
		if err != nil {
			return nil, fmt.Errorf("%s (%s): %w", name, target, err)
		}
		par, err := compile("parallel")
		if err != nil {
			return nil, fmt.Errorf("%s (parallel): %w", name, err)
		}

		baseRes, baseNS, err := timeScan(base, w.Input)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		autoRes, autoNS, err := timeScan(auto, w.Input)
		if err != nil {
			return nil, fmt.Errorf("%s (auto): %w", name, err)
		}
		parRes, parNS, err := timeScan(par, w.Input)
		if err != nil {
			return nil, fmt.Errorf("%s (parallel): %w", name, err)
		}
		outputOK := sameScan(baseRes, autoRes) && sameScan(baseRes, parRes)

		row := exp.MetaRow{
			Name:         name,
			Choice:       auto.Info().Backend,
			AutoNS:       autoNS,
			NFANS:        baseNS,
			ParallelNS:   parNS,
			SpeedupVsNFA: ratio(baseNS, autoNS),
			BestBackend:  "nfa",
			BestNS:       baseNS,
		}
		if parNS < row.BestNS {
			row.BestBackend, row.BestNS = "parallel", parNS
		}
		if dfa, err := compile("dfa"); err == nil {
			dfaRes, dfaNS, terr := timeScan(dfa, w.Input)
			if terr != nil {
				return nil, fmt.Errorf("%s (dfa): %w", name, terr)
			}
			row.DFANS = dfaNS
			outputOK = outputOK && sameScan(baseRes, dfaRes)
			if dfaNS < row.BestNS {
				row.BestBackend, row.BestNS = "dfa", dfaNS
			}
		} else if !strings.Contains(err.Error(), "unsupported") {
			return nil, fmt.Errorf("%s (dfa): %w", name, err)
		}
		if st := auto.DFAStats(); st.Hits+st.Misses > 0 {
			row.DFAStates = st.States
			row.CacheHitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
			row.Fallbacks = st.Fallbacks
		}
		row.OutputOK = outputOK
		rows = append(rows, row)
	}
	return rows, nil
}

// timeScan runs the scan three times and returns the last result with the
// fastest wall time, so one-off warm-up noise (lazy-DFA cache fill
// included) does not distort a ratio.
func timeScan(e *sunder.Engine, input []byte) (*sunder.ScanResult, int64, error) {
	var res *sunder.ScanResult
	best := int64(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := e.Scan(input)
		ns := time.Since(start).Nanoseconds()
		if err != nil {
			return nil, 0, err
		}
		res = r
		if best == 0 || ns < best {
			best = ns
		}
	}
	return res, best, nil
}

// sameScan compares two results' matches in exact order — every backend
// returns ascending (Position, Code) — plus the report statistics.
func sameScan(a, b *sunder.ScanResult) bool {
	if a.Stats.Reports != b.Stats.Reports || a.Stats.ReportCycles != b.Stats.ReportCycles {
		return false
	}
	return slices.Equal(a.Matches, b.Matches)
}

func ratio(base, other int64) float64 {
	if other <= 0 {
		return 0
	}
	return float64(base) / float64(other)
}
