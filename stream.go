package sunder

import "errors"

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
	// x runs the stream on the engine's lane; filt replaces it when the
	// engine compiled with Options.Prefilter.
	x    *executor
	filt *streamFilter
	err  error
	// stats memoizes Close's result.
	closed bool
	stats  Stats
}

// NewStream resets the engine and returns a streaming scanner. onMatch may
// be nil if only the final Stats are of interest: matches are then
// discarded as they occur, never held. The returned error is
// non-nil only when a fault policy is armed and its guard cannot be built.
//
// A stream drives the engine's shared machine, so one engine supports one
// stream at a time; for concurrent streams, open each on its own
// Engine.Clone — clones share the compiled artifacts, so this is cheap.
func (e *Engine) NewStream(onMatch func(Match)) (*Stream, error) {
	s := &Stream{}
	if onMatch == nil {
		// The row sink collects matches when it has no callback; a stream
		// never returns them, so it discards them instead.
		onMatch = func(Match) {}
	}
	how, _ := e.route("")
	if how == routePrefilter {
		s.filt = newStreamFilter(e, onMatch)
		return s, nil
	}
	x, err := e.newExecutor(&e.lane, how, onMatch)
	if err != nil {
		return nil, err
	}
	s.x = x
	return s, nil
}

// Write feeds more input. It returns ErrClosedStream after Close and the
// stream's sticky error after an unrecoverable fault or a full prefilter
// deferred-start buffer; the signature satisfies io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	if s.closed {
		return 0, ErrClosedStream
	}
	if s.err != nil {
		return 0, s.err
	}
	var err error
	if s.filt != nil {
		// A full deferred buffer still consumed the chunk (Close accounts
		// for it), but the stream accepts no more input.
		err = s.filt.write(p)
	} else {
		err = s.x.write(p)
	}
	if err != nil {
		s.err = err
		return 0, err
	}
	return len(p), nil
}

// Close pads and executes the final partial vector (matches ending on the
// last input bytes are still found) and returns the device statistics.
// Close is idempotent: further calls return the same statistics, and
// further writes return ErrClosedStream. Under a fault policy, a failure
// in the final window is reported through Err.
func (s *Stream) Close() Stats {
	if s.closed {
		return s.stats
	}
	s.closed = true
	if s.filt != nil {
		s.stats = s.filt.close()
		return s.stats
	}
	var err error
	if s.stats, err = s.x.close(); err != nil {
		s.err = err
	}
	return s.stats
}

// Err returns the error that stopped the stream, if any: an unrecoverable
// device fault surfaced by the recovery guard.
func (s *Stream) Err() error { return s.err }

// Faults summarizes the stream's fault activity so far; nil when no fault
// policy is armed.
func (s *Stream) Faults() *FaultReport {
	if s.x == nil || s.x.g == nil {
		return nil
	}
	return faultReport(s.x.g.Stats())
}

// BytesIn returns the number of input bytes consumed so far.
func (s *Stream) BytesIn() int64 {
	if s.filt != nil {
		return s.filt.rows.n
	}
	return s.x.rows.n
}
