// Package dfa is the lazy-DFA software backend: on-demand subset
// construction over a compiled unit automaton, with a bounded LRU cache of
// DFA states and byte-class-compressed transition rows.
//
// The determinization runs at cycle granularity. It is defined only for
// nibble automata whose rate is a whole number of symbols per cycle
// (Rate % SymbolUnits == 0, i.e. rates 2 and 4 for byte input split into
// nibbles): every cycle then starts at an original-symbol boundary, so the
// unanchored start states re-activate on *every* cycle and the cycle
// transition becomes a pure function of (active state set, input bytes) —
// exactly the memoizable shape a DFA needs. Rate-1 automata interleave two
// cycles per byte with time-dependent start injection and are rejected by
// Supported; callers fall back to the bitvec NFA core there.
//
// A DFA state is an NFA active-state set (a bitvec). Its transition row is
// indexed not by the raw byte tuple but by the tuple of *symbol classes*
// from the certified analysis.SymbolClasses partition of the byte
// automaton: bytes in one class have identical match-matrix columns, so
// they drive the byte automaton identically, and (by the transformation's
// event-equivalence theorem) continuations from the sets they produce emit
// identical deduplicated report streams. Sharing one cell per class tuple
// is therefore output-sound even when the raw unit-level sets differ — see
// DESIGN.md §4.16 for the full argument and its proof obligations.
//
// Three cycles are never served from the cache and are stepped directly on
// the NFA tables instead: cycle 0 (start-of-data injection is
// time-dependent) and any cycle containing pad units (pad semantics depend
// on where the input ends). Everything between is cached.
//
// Each cached state also carries its emission row (automata.EmissionRow
// of the set's reporting members).
// Report emission on a cache hit is therefore a slice hand-off, and the
// emitted order is a function of the reports alone, never of which bytes
// first built the state.
package dfa

import (
	"fmt"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
)

// Supported reports whether the lazy DFA can execute a, and if not, why.
func Supported(a *automata.UnitAutomaton) (bool, string) {
	if a.UnitBits != 4 || a.SymbolUnits != 2 {
		return false, "not a nibble automaton"
	}
	if a.Rate%a.SymbolUnits != 0 {
		return false, "rate below symbol units (cycles split bytes)"
	}
	return true, ""
}

// Plan holds the immutable stepping tables shared by every Runner built
// for one compiled automaton: per-byte-position transition tables (the two
// nibble tables of each position pre-ANDed into one 256-entry byte table),
// pad masks, start and report masks, and the symbol-class partition that
// compresses transition rows. Plans are read-only after New and safe to
// share across engines and goroutines.
type Plan struct {
	a         *automata.UnitAutomaton
	stepBytes int
	classes   int
	classOf   [256]uint16
	rowSize   int

	// byteTable[j][b] is the set of states whose nibble positions 2j and
	// 2j+1 accept byte b's high and low nibble; padMask[j] is the set of
	// states with both positions don't-care (only those survive a Pad
	// byte at position j).
	byteTable [][]*bitvec.Vector
	padMask   []*bitvec.Vector

	startAll   *bitvec.Vector
	startData  *bitvec.Vector
	reportMask *bitvec.Vector
	// succMask[i] is non-nil for high-fanout states; low-fanout states walk
	// their successor slices directly.
	succMask []*bitvec.Vector
}

// succMaskThreshold mirrors the functional simulator: states with this
// many successors or more get a precomputed OR mask.
const succMaskThreshold = 8

// NewPlan builds the stepping tables for a. classOf/classes must be the
// certified symbol-class partition of the *byte* automaton a was
// transformed from (analysis.SymbolClasses); passing a finer partition is
// sound but wastes cells, a coarser one is unsound. New returns an error
// when a is not Supported or the partition is malformed.
func NewPlan(a *automata.UnitAutomaton, classOf [256]uint16, classes int) (*Plan, error) {
	if ok, reason := Supported(a); !ok {
		return nil, fmt.Errorf("dfa: %s", reason)
	}
	if classes < 1 || classes > 256 {
		return nil, fmt.Errorf("dfa: symbol-class count %d out of range", classes)
	}
	for b, c := range classOf {
		if int(c) >= classes {
			return nil, fmt.Errorf("dfa: byte 0x%02x assigned to class %d of %d", b, c, classes)
		}
	}
	n := a.NumStates()
	sb := a.Rate / a.SymbolUnits
	p := &Plan{
		a:          a,
		stepBytes:  sb,
		classes:    classes,
		classOf:    classOf,
		rowSize:    pow(classes, sb),
		byteTable:  make([][]*bitvec.Vector, sb),
		padMask:    make([]*bitvec.Vector, sb),
		startAll:   bitvec.New(n),
		startData:  bitvec.New(n),
		reportMask: bitvec.New(n),
		succMask:   make([]*bitvec.Vector, n),
	}
	all := automata.AllUnits(a.UnitBits)
	for j := 0; j < sb; j++ {
		p.byteTable[j] = make([]*bitvec.Vector, 256)
		for b := 0; b < 256; b++ {
			p.byteTable[j][b] = bitvec.New(n)
		}
		p.padMask[j] = bitvec.New(n)
	}
	for i := range a.States {
		st := &a.States[i]
		for j := 0; j < sb; j++ {
			hi, lo := st.Match[2*j], st.Match[2*j+1]
			for b := 0; b < 256; b++ {
				if hi.Has(b>>4) && lo.Has(b&0x0f) {
					p.byteTable[j][b].Set(i)
				}
			}
			if hi == all && lo == all {
				p.padMask[j].Set(i)
			}
		}
		switch st.Start {
		case automata.StartAllInput:
			p.startAll.Set(i)
		case automata.StartOfData:
			p.startData.Set(i)
		}
		if len(st.Reports) > 0 {
			p.reportMask.Set(i)
		}
		if len(st.Succ) >= succMaskThreshold {
			mask := bitvec.New(n)
			for _, t := range st.Succ {
				mask.Set(int(t))
			}
			p.succMask[i] = mask
		}
	}
	return p, nil
}

// StepBytes returns the number of input bytes one cycle consumes.
func (p *Plan) StepBytes() int { return p.stepBytes }

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// Config bounds a Runner's state cache.
type Config struct {
	// MaxStates caps the live cached DFA states. 0 derives the cap from
	// CellBudget and the plan's row size, clamped to [2, 32768].
	MaxStates int
	// CellBudget is the total transition-cell budget across live states
	// when MaxStates is 0 (default 1<<22 cells, i.e. 16 MiB of int32).
	CellBudget int
	// BlowupRatio triggers the NFA fallback: once any state has been
	// evicted and the number of states constructed exceeds
	// BlowupRatio × cycles executed, the run stops caching and steps the
	// NFA tables directly for its remainder (default 0.25). The cache is
	// thrashing at that point — subset construction per cycle costs more
	// than plain NFA stepping.
	BlowupRatio float64
}

// DefaultConfig returns the default cache bounds.
func DefaultConfig() Config {
	return Config{CellBudget: 1 << 22, BlowupRatio: 0.25}
}

func (c Config) maxStates(rowSize int) int {
	if c.MaxStates > 0 {
		if c.MaxStates < 2 {
			return 2
		}
		return c.MaxStates
	}
	budget := c.CellBudget
	if budget <= 0 {
		budget = 1 << 22
	}
	n := budget / rowSize
	if n < 2 {
		n = 2
	}
	if n > 32768 {
		n = 32768
	}
	return n
}

func (c Config) blowupRatio() float64 {
	if c.BlowupRatio > 0 {
		return c.BlowupRatio
	}
	return 0.25
}

// Stats counts a Runner's cache behaviour since construction (Reset does
// not clear them: the cache persists across runs, so the counters describe
// its whole life).
type Stats struct {
	// States is the number of DFA states constructed (subset
	// constructions performed).
	States int64
	// Hits and Misses count cached-transition lookups.
	Hits   int64
	Misses int64
	// Evictions counts LRU evictions.
	Evictions int64
	// Fallbacks counts runs that abandoned caching for plain NFA stepping
	// after the cache thrashed past Config.BlowupRatio.
	Fallbacks int64
}

// dstate is one cached DFA state. Evicted states stay in the slice as dead
// husks (set and cells freed) so their IDs never get reused: a stale cell
// in a surviving row detects the eviction via the dead flag and re-misses.
type dstate struct {
	set   *bitvec.Vector
	hash  uint64
	cells []int32
	// row is the state's emission row, exact-size (nil when the set has
	// no reporting member).
	row  []automata.Report
	prev int32
	next int32
	dead bool
}

// Runner executes one input stream at a time against a Plan, memoizing
// cycle transitions in an LRU-bounded DFA state cache that persists across
// Reset — repeated scans of one engine reuse the hot cache. A Runner is
// not safe for concurrent use; build one per goroutine (they share the
// Plan).
type Runner struct {
	p   *Plan
	cfg Config
	max int

	states []dstate
	index  map[uint64][]int32
	live   int
	// mru/lru are the ends of the doubly-linked recency list over live
	// states (-1 when empty).
	mru, lru int32

	// cur is the cached state the run sits in, or -1 when the run is in
	// direct-NFA mode (cycle 0, pad cycles, or after fallback); active
	// then holds the raw set.
	cur     int32
	active  *bitvec.Vector
	enabled *bitvec.Vector
	// scratch holds the emission row under construction (ids its
	// reporting states): interned states copy it out, directly-stepped
	// cycles return it.
	scratch  []automata.Report
	ids      []automata.StateID
	cycle    int64
	fellBack bool

	stats Stats
}

// NewRunner builds a runner with the given cache bounds.
func NewRunner(p *Plan, cfg Config) *Runner {
	n := p.a.NumStates()
	return &Runner{
		p:       p,
		cfg:     cfg,
		max:     cfg.maxStates(p.rowSize),
		index:   make(map[uint64][]int32),
		mru:     -1,
		lru:     -1,
		cur:     -1,
		active:  bitvec.New(n),
		enabled: bitvec.New(n),
	}
}

// Plan returns the runner's shared plan.
func (r *Runner) Plan() *Plan { return r.p }

// Stats returns the cache counters accumulated over the runner's life.
func (r *Runner) Stats() Stats { return r.stats }

// FellBack reports whether the current (or last) run abandoned caching.
func (r *Runner) FellBack() bool { return r.fellBack }

// Cycle returns the cycles executed since the last Reset.
func (r *Runner) Cycle() int64 { return r.cycle }

// Reset prepares the runner for a new input stream. The DFA state cache is
// kept hot unless dead husks dominate it, in which case it is rebuilt
// empty (bounding the memory a past thrashing run left behind).
func (r *Runner) Reset() {
	r.cycle = 0
	r.cur = -1
	r.fellBack = false
	r.active.Reset()
	if len(r.states)-r.live > 4*r.max {
		r.states = nil
		r.index = make(map[uint64][]int32)
		r.live = 0
		r.mru, r.lru = -1, -1
	}
}

// Step consumes one cycle: the next StepBytes() input bytes, of which the
// last pad positions are past the end of the input (the final cycle of an
// odd-length input). It returns the cycle's emission row — the
// automata.EmissionRow of the cycle's active reporting states, the same
// row every substrate emits — so it does not depend on the runner's cache
// history: warm and fresh runners return identical rows for identical
// input. The slice is
// owned by the runner — read it before the next Step and do not mutate or
// retain it (cached states hand out their long-lived rows).
func (r *Runner) Step(data []byte, pad int) []automata.Report {
	first := r.cycle == 0
	r.cycle++
	if first || pad > 0 || r.fellBack || r.cur < 0 {
		// Directly-stepped cycles: time-dependent start injection (cycle
		// 0), pad semantics (final cycle), or fallback mode.
		var src *bitvec.Vector
		if !first {
			src = r.active
			if r.cur >= 0 {
				src = r.states[r.cur].set
			}
		}
		r.nfaStep(r.enabled, src, data, pad, first)
		r.active, r.enabled = r.enabled, r.active
		if pad == 0 && !r.fellBack {
			// Re-enter cached mode: the reached set is a valid DFA state
			// (its outgoing transitions are time-invariant).
			if id := r.intern(r.active); id >= 0 {
				r.cur = id
				return r.states[id].row
			}
		} else {
			r.cur = -1
		}
		return r.buildRow(r.active)
	}

	curID := r.cur
	st := &r.states[curID]
	idx := int(r.p.classOf[data[0]])
	if r.p.stepBytes == 2 {
		idx = idx*r.p.classes + int(r.p.classOf[data[1]])
	}
	if next := st.cells[idx]; next >= 0 && !r.states[next].dead {
		r.stats.Hits++
		r.cur = next
		r.touch(next)
		return r.states[next].row
	}
	r.stats.Misses++
	r.nfaStep(r.enabled, st.set, data, 0, false)
	id := r.intern(r.enabled)
	if id < 0 {
		// Blowup fallback: continue the run on the raw set, no restart.
		r.active.CopyFrom(r.enabled)
		r.cur = -1
		return r.buildRow(r.active)
	}
	// intern may have grown the states slice or evicted rows; re-resolve
	// the origin row before linking the cell. The origin itself is safe
	// from eviction: it was most-recently-used before this step.
	r.states[curID].cells[idx] = id
	r.cur = id
	return r.states[id].row
}

// nfaStep computes one cycle transition on the NFA tables: enabled states
// are the always-on unanchored starts (every cycle begins at a symbol
// boundary — see Supported), the anchored starts on the first cycle, and
// the successors of src; the per-position byte tables (pad masks for pad
// positions) then filter them down to the next active set.
func (r *Runner) nfaStep(dst, src *bitvec.Vector, data []byte, pad int, first bool) {
	p := r.p
	dst.Reset()
	dst.Or(p.startAll)
	if first {
		dst.Or(p.startData)
	}
	if src != nil {
		src.ForEach(func(i int) bool {
			if m := p.succMask[i]; m != nil {
				dst.Or(m)
				return true
			}
			for _, t := range p.a.States[i].Succ {
				dst.Set(int(t))
			}
			return true
		})
	}
	real := p.stepBytes - pad
	for j := 0; j < p.stepBytes; j++ {
		if j < real {
			dst.And(p.byteTable[j][data[j]])
		} else {
			dst.And(p.padMask[j])
		}
	}
}

// buildRow builds the emission row of a raw set into the runner's scratch
// buffer (automata.EmissionRow over its reporting members).
func (r *Runner) buildRow(set *bitvec.Vector) []automata.Report {
	if !set.Intersects(r.p.reportMask) {
		return nil
	}
	ids := r.ids[:0]
	set.ForEach(func(i int) bool {
		if r.p.reportMask.Get(i) {
			ids = append(ids, automata.StateID(i))
		}
		return true
	})
	r.ids = ids
	r.scratch = r.p.a.EmissionRow(r.scratch, ids)
	return r.scratch
}

// intern returns the cached state ID for set, constructing (and possibly
// evicting) as needed. It returns -1 when construction would thrash: the
// caller then falls back to direct NFA stepping for the rest of the run.
func (r *Runner) intern(set *bitvec.Vector) int32 {
	h := hashSet(set)
	for _, id := range r.index[h] {
		if !r.states[id].dead && r.states[id].set.Equal(set) {
			r.touch(id)
			return id
		}
	}
	if r.stats.Evictions > 0 && float64(r.stats.States) > r.cfg.blowupRatio()*float64(r.cycle) {
		r.fellBack = true
		r.stats.Fallbacks++
		return -1
	}
	if r.live >= r.max {
		r.evict()
	}
	id := int32(len(r.states))
	cells := make([]int32, r.p.rowSize)
	for i := range cells {
		cells[i] = -1
	}
	var row []automata.Report
	if scratch := r.buildRow(set); len(scratch) > 0 {
		row = make([]automata.Report, len(scratch))
		copy(row, scratch)
	}
	r.states = append(r.states, dstate{
		set: set.Clone(), hash: h, cells: cells, row: row, prev: -1, next: -1,
	})
	r.index[h] = append(r.index[h], id)
	r.live++
	r.stats.States++
	r.pushFront(id)
	return id
}

// evict retires the least-recently-used state. Its ID is never reused:
// rows still pointing at it re-miss via the dead flag.
func (r *Runner) evict() {
	victim := r.lru
	if victim < 0 {
		return
	}
	r.unlink(victim)
	st := &r.states[victim]
	st.dead = true
	st.set = nil
	st.cells = nil
	st.row = nil
	// Drop the index entry so the husk is not rediscovered.
	bucket := r.index[st.hash]
	for i, id := range bucket {
		if id == victim {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(r.index, st.hash)
	} else {
		r.index[st.hash] = bucket
	}
	r.live--
	r.stats.Evictions++
}

func (r *Runner) touch(id int32) {
	if r.mru == id {
		return
	}
	r.unlink(id)
	r.pushFront(id)
}

func (r *Runner) pushFront(id int32) {
	st := &r.states[id]
	st.prev = -1
	st.next = r.mru
	if r.mru >= 0 {
		r.states[r.mru].prev = id
	}
	r.mru = id
	if r.lru < 0 {
		r.lru = id
	}
}

func (r *Runner) unlink(id int32) {
	st := &r.states[id]
	if st.prev >= 0 {
		r.states[st.prev].next = st.next
	} else if r.mru == id {
		r.mru = st.next
	}
	if st.next >= 0 {
		r.states[st.next].prev = st.prev
	} else if r.lru == id {
		r.lru = st.prev
	}
	st.prev, st.next = -1, -1
}

// hashSet is FNV-1a over the set's member indices — deterministic across
// processes (no seeding), cheap for the sparse sets NFA scans produce.
func hashSet(set *bitvec.Vector) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	set.ForEach(func(i int) bool {
		h ^= uint64(i)
		h *= prime64
		h ^= uint64(i) >> 8
		h *= prime64
		return true
	})
	return h
}
