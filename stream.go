package sunder

import (
	"errors"

	"sunder/internal/automata"
	"sunder/internal/dfa"
	"sunder/internal/faults"
	"sunder/internal/funcsim"
	"sunder/internal/meta"
)

// ErrClosedStream is returned by Stream.Write after Close.
var ErrClosedStream = errors.New("sunder: write to closed stream")

// Stream scans input incrementally — the deployment mode of network
// intrusion detection, where packets arrive one at a time and matches must
// surface immediately. It implements io.Writer; matches are delivered to
// the OnMatch callback as they occur, in the order Scan returns them.
//
// With a fault policy armed on the engine, the stream runs under the
// recovery guard: matches are delivered when their checkpoint window
// commits (at most FaultPolicy.CheckpointInterval cycles after they occur),
// so a consumer never sees a match from device state that is later rolled
// back. An unrecoverable fault (spare PUs exhausted) surfaces as an error
// from Write and from Err.
type Stream struct {
	eng     *Engine
	onMatch func(Match)
	// guard is non-nil when the engine has a fault policy armed; input
	// then flows through it instead of directly into the machine.
	guard *faults.Guard
	err   error
	// pending buffers input units until a full vector is available.
	pending []funcsim.Unit
	// filt is the incremental literal prefilter; non-nil when the engine
	// compiled with Options.Prefilter (input then flows through it instead
	// of pending/consume).
	filt *streamFilter
	// filtStats memoizes the filtered Close result (Close is idempotent).
	filtStats Stats
	// dfaRun is the engine's sequential lazy-DFA runner; non-nil when the
	// stream runs on the "dfa" backend. pendB then buffers the bytes of an
	// incomplete cycle and dfaCycles counts cycles stepped.
	dfaRun    *dfa.Runner
	pendB     []byte
	dfaCycles int64
	scratch   []automata.StateID
	// row is emit's emission-row buffer.
	row     []automata.Report
	bytesIn int64
	closed  bool
	// reports / reportCycles accumulate the same per-cycle deduplicated
	// counts as Engine.Scan, so Close returns identical Stats.
	reports      int64
	reportCycles int64
}

// NewStream resets the engine and returns a streaming scanner. onMatch may
// be nil if only the final Stats are of interest. The returned error is
// non-nil only when a fault policy is armed and its guard cannot be built.
//
// A stream drives the engine's shared machine, so one engine supports one
// stream at a time; for concurrent streams, open each on its own
// Engine.Clone — clones share the compiled artifacts, so this is cheap.
func (e *Engine) NewStream(onMatch func(Match)) (*Stream, error) {
	s := &Stream{eng: e, onMatch: onMatch}
	how, _ := e.route("")
	if how == routeGuarded {
		g, err := e.newGuard()
		if err != nil {
			return nil, err
		}
		g.OnReportCycle(s.emit)
		s.guard = g
		return s, nil
	}
	e.machine.Reset()
	switch how {
	case routePrefilter:
		s.filt = newStreamFilter(s)
	case meta.BackendDFA:
		// Streams are inherently sequential, so the "parallel" backend
		// streams on the machine like "nfa"; only "dfa" changes substrate.
		s.dfaRun = e.dfaRunner(e.art)
		s.dfaRun.Reset()
	}
	return s, nil
}

// Write feeds more input. It returns ErrClosedStream after Close and the
// guard's sticky error after an unrecoverable fault; the signature
// satisfies io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	if s.closed {
		return 0, ErrClosedStream
	}
	if s.err != nil {
		return 0, s.err
	}
	if s.guard != nil {
		// Count the bytes before feeding: emit callbacks fired during Feed
		// compare report units against the fed length to reject phantoms.
		s.bytesIn += int64(len(p))
		if err := s.guard.Feed(funcsim.BytesToUnits(p, 4)); err != nil {
			s.err = err
			s.eng.adoptGuard(s.guard)
			return 0, err
		}
		return len(p), nil
	}
	s.bytesIn += int64(len(p))
	if s.filt != nil {
		if err := s.filt.write(p); err != nil {
			// Sticky, like a guard failure: the chunk was consumed into the
			// deferred buffer (Close accounts for it), but the stream
			// accepts no more input.
			s.err = err
			return 0, err
		}
		return len(p), nil
	}
	if s.dfaRun != nil {
		s.pendB = append(s.pendB, p...)
		s.consumeDFA()
		return len(p), nil
	}
	s.pending = append(s.pending, funcsim.BytesToUnits(p, 4)...)
	s.consume()
	return len(p), nil
}

// consume executes all complete vectors in the pending buffer.
func (s *Stream) consume() {
	rate := s.eng.machine.Config().Rate
	off := 0
	for off+rate <= len(s.pending) {
		s.step(s.pending[off : off+rate])
		off += rate
	}
	s.pending = append(s.pending[:0], s.pending[off:]...)
}

// consumeDFA executes all complete cycles in the buffered bytes on the
// lazy DFA.
func (s *Stream) consumeDFA() {
	sb := s.eng.art.dfaPlan.StepBytes()
	off := 0
	for off+sb <= len(s.pendB) {
		s.stepDFA(s.pendB[off:off+sb], 0)
		off += sb
	}
	s.pendB = append(s.pendB[:0], s.pendB[off:]...)
}

// flushDFA pads and executes the final partial cycle at Close.
func (s *Stream) flushDFA() {
	if len(s.pendB) == 0 {
		return
	}
	s.stepDFA(s.pendB, s.eng.art.dfaPlan.StepBytes()-len(s.pendB))
	s.pendB = s.pendB[:0]
}

// stepDFA executes one cycle on the lazy DFA and emits its row.
func (s *Stream) stepDFA(data []byte, pad int) {
	s.dfaCycles++
	if row := s.dfaRun.Step(data, pad); len(row) > 0 {
		s.emitRow(s.dfaCycles-1, row)
	}
}

func (s *Stream) step(vec []funcsim.Unit) {
	cycle := s.eng.machine.KernelCycles()
	s.scratch = s.eng.machine.Step(vec, s.scratch[:0])
	if len(s.scratch) == 0 {
		return
	}
	s.emit(cycle, s.scratch)
}

// emit emits one device report cycle: the emission row of its reporting
// states.
func (s *Stream) emit(cycle int64, ids []automata.StateID) {
	s.row = s.eng.art.nibble.EmissionRow(s.row, ids)
	s.emitRow(cycle, s.row)
}

// emitRow counts one cycle's emission row and delivers its matches in row
// order, ascending (Position, Code). A report ending past the bytes
// written so far sits in the pad tail of the final cycle — phantom, not a
// real occurrence — and, rows ascending by position, so does the rest of
// the row.
func (s *Stream) emitRow(cycle int64, row []automata.Report) {
	s.reports += int64(len(row))
	s.reportCycles++
	if s.onMatch == nil {
		return
	}
	base, n, onMatch := cycle*s.eng.art.cycleUnits, s.bytesIn, s.onMatch
	for _, rep := range row {
		pos := bytePos(base + int64(rep.Offset))
		if pos >= n {
			return
		}
		onMatch(Match{Position: pos, Code: rep.Code})
	}
}

// Close pads and executes the final partial vector (matches ending on the
// last input bytes are still found) and returns the device statistics.
// Close is idempotent: further calls return the same statistics, and
// further writes return ErrClosedStream. Under a fault policy, a failure
// in the final window is reported through Err.
func (s *Stream) Close() Stats {
	if s.filt != nil {
		if !s.closed {
			s.closed = true
			s.filtStats = s.filt.close()
		}
		return s.filtStats
	}
	if !s.closed {
		s.closed = true
		if s.guard != nil {
			if err := s.guard.Finish(); err != nil {
				s.err = err
			}
			s.eng.adoptGuard(s.guard)
		} else if s.dfaRun != nil {
			s.flushDFA()
		} else if len(s.pending) > 0 {
			rate := s.eng.machine.Config().Rate
			s.pending = funcsim.PadUnits(s.pending, rate)
			s.consume()
		}
	}
	if s.dfaRun != nil {
		// Same documented divergence as Scan on the "dfa" backend: the
		// report-region stall model is not simulated, so StallCycles and
		// Flushes read zero.
		return Stats{
			KernelCycles: s.dfaCycles,
			Reports:      s.reports,
			ReportCycles: s.reportCycles,
		}
	}
	m := s.eng.machine
	return Stats{
		KernelCycles: m.KernelCycles(),
		StallCycles:  m.StallCycles(),
		Flushes:      m.Flushes(),
		Reports:      s.reports,
		ReportCycles: s.reportCycles,
	}
}

// Err returns the error that stopped the stream, if any: an unrecoverable
// device fault surfaced by the recovery guard.
func (s *Stream) Err() error { return s.err }

// Faults summarizes the stream's fault activity so far; nil when no fault
// policy is armed.
func (s *Stream) Faults() *FaultReport {
	if s.guard == nil {
		return nil
	}
	return faultReport(s.guard.Stats())
}

// BytesIn returns the number of input bytes consumed so far.
func (s *Stream) BytesIn() int64 { return s.bytesIn }
