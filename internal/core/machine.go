package core

import (
	"fmt"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
)

// Machine is a configured Sunder device: a set of processing units holding
// one transformed automaton, executing one input vector per cycle.
type Machine struct {
	cfg   Config
	a     *automata.UnitAutomaton
	place *mapping.Placement
	pus   []pu
	// gx[pu][col][k] holds the columns of PU (clusterBase+k) activated
	// by column col of pu — the per-cluster global switches (Figure 7).
	gx [][ColsPerSubarray][mapping.PUsPerCluster]bitvec.V256

	kernelCycles int64
	stallCycles  int64
	drainCredit  int64
	drainRR      int
	energy       EnergyCounters
	// tel is the attached telemetry sink; nil (the default) disables all
	// instrumentation at the cost of one branch per site.
	tel *telemetrySink
	// flt is the attached fault-injection state (see faults.go); nil (the
	// default) disables the fault surface at the same one-branch cost.
	flt *faultState

	// mode and configImage implement Normal Mode (see normalmode.go).
	mode        Mode
	configImage [][RowsPerSubarray]bitvec.V256
	// noStartData suppresses start-of-data injection on cycle zero (see
	// SuppressStartOfData); set on shard-worker clones replaying mid-stream.
	noStartData bool
	// scratch (ids and row are StepRow's reporting states and emission row)
	newActive []bitvec.V256
	enables   []bitvec.V256
	v8        []int8
	ids       []automata.StateID
	row       []automata.Report
}

// Configure builds a Machine from a transformed automaton and a placement.
// The automaton's rate must equal the configuration's, and the placement
// must have been produced with the same report-column budget.
func Configure(a *automata.UnitAutomaton, place *mapping.Placement, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.UnitBits != 4 {
		return nil, fmt.Errorf("core: machine executes nibble automata; got %d-bit units", a.UnitBits)
	}
	if a.Rate != cfg.Rate {
		return nil, fmt.Errorf("core: automaton rate %d != configured rate %d", a.Rate, cfg.Rate)
	}
	if place.ReportColumns != cfg.ReportColumns {
		return nil, fmt.Errorf("core: placement used %d report columns, config has %d",
			place.ReportColumns, cfg.ReportColumns)
	}
	m := &Machine{
		cfg:       cfg,
		a:         a,
		place:     place,
		pus:       make([]pu, place.NumPUs),
		gx:        make([][ColsPerSubarray][mapping.PUsPerCluster]bitvec.V256, place.NumPUs),
		newActive: make([]bitvec.V256, place.NumPUs),
		enables:   make([]bitvec.V256, place.NumPUs),
		v8:        make([]int8, cfg.Rate),
	}
	all := automata.AllUnits(4)
	for s := range a.States {
		st := &a.States[s]
		loc := place.Of[s]
		u := &m.pus[loc.PU]
		for g := 0; g < cfg.Rate; g++ {
			for v := 0; v < 16; v++ {
				if st.Match[g].Has(v) {
					u.rows[RowsPerNibble*g+v].Set(loc.Col)
				}
			}
			if st.Match[g] == all {
				u.dontCare[g].Set(loc.Col)
			}
		}
		switch st.Start {
		case automata.StartAllInput:
			u.startAll.Set(loc.Col)
		case automata.StartOfData:
			u.startData.Set(loc.Col)
		}
		if len(st.Reports) > 0 {
			if loc.Col < ColsPerSubarray-cfg.ReportColumns {
				return nil, fmt.Errorf("core: report state %d placed outside report columns (col %d)", s, loc.Col)
			}
			u.reportMask.Set(loc.Col)
		}
	}
	for s := range a.States {
		from := place.Of[s]
		for _, t := range a.States[s].Succ {
			to := place.Of[t]
			switch {
			case from.PU == to.PU:
				m.pus[from.PU].xbar[from.Col].Set(to.Col)
			case mapping.ClusterOf(from.PU) == mapping.ClusterOf(to.PU):
				k := to.PU % mapping.PUsPerCluster
				m.gx[from.PU][from.Col][k].Set(to.Col)
			default:
				return nil, fmt.Errorf("core: edge %d→%d crosses clusters (PU %d → PU %d)", s, t, from.PU, to.PU)
			}
		}
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumPUs returns the number of processing units in use.
func (m *Machine) NumPUs() int { return len(m.pus) }

// KernelCycles returns productive (non-stall) cycles executed.
func (m *Machine) KernelCycles() int64 { return m.kernelCycles }

// StallCycles returns cycles lost to reporting (flushes, overflow waits,
// summarization).
func (m *Machine) StallCycles() int64 { return m.stallCycles }

// Flushes returns the total whole-region flushes (w/o FIFO) or overflow
// events (w/ FIFO) across all PUs.
func (m *Machine) Flushes() int64 {
	var n int64
	for i := range m.pus {
		n += m.pus[i].flushes
	}
	return n
}

// Summaries returns the total in-place summarization events.
func (m *Machine) Summaries() int64 {
	var n int64
	for i := range m.pus {
		n += m.pus[i].summaries
	}
	return n
}

// Overhead returns the reporting slowdown (kernel+stall)/kernel — the
// Table 4 metric.
func (m *Machine) Overhead() float64 {
	if m.kernelCycles == 0 {
		return 1
	}
	return float64(m.kernelCycles+m.stallCycles) / float64(m.kernelCycles)
}

// Reset returns the machine to its post-configuration state.
func (m *Machine) Reset() {
	for i := range m.pus {
		u := &m.pus[i]
		u.active = bitvec.V256{}
		u.clearRegion(m.cfg)
		u.summary = bitvec.V256{}
		u.lastStride = 0
		u.flushes = 0
		u.summaries = 0
		u.reportEntries = 0
		u.strideMarkers = 0
		u.stallCycles = 0
		u.peakOccupied = 0
		u.consumed = 0
	}
	if m.flt != nil {
		for i := range m.flt.parity {
			m.flt.parity[i].Reset()
			m.flt.parityErrs[i] = 0
		}
	}
	m.kernelCycles = 0
	m.stallCycles = 0
	m.drainCredit = 0
	m.drainRR = 0
	m.energy = EnergyCounters{}
}

// Step executes one cycle on a vector of Rate units (funcsim.Pad allowed)
// and appends the active reporting states to dst, returning it.
func (m *Machine) Step(vec []funcsim.Unit, dst []automata.StateID) []automata.StateID {
	if m.mode != AutomataMode {
		panic("core: Step while in normal (cache) mode")
	}
	if len(vec) != m.cfg.Rate {
		panic(fmt.Sprintf("core: vector length %d != rate %d", len(vec), m.cfg.Rate))
	}
	if m.flt != nil {
		m.flt.hook.BeforeCycle(m, m.kernelCycles)
	}
	if m.cfg.FIFO {
		m.drain()
	}
	injectAll := (m.kernelCycles*int64(m.cfg.Rate))%int64(m.a.SymbolUnits) == 0
	injectData := m.kernelCycles == 0 && !m.noStartData

	// Phase 1: enables from the previous active vectors (local crossbar +
	// global switches + start enables).
	m.energy.MatchReads += int64(len(m.pus))
	for i := range m.pus {
		m.energy.XbarRowReads += int64(m.pus[i].active.Count())
		m.enables[i] = m.pus[i].localEnable()
		if injectAll {
			m.enables[i] = m.enables[i].Or(m.pus[i].startAll)
		}
		if injectData {
			m.enables[i] = m.enables[i].Or(m.pus[i].startData)
		}
	}
	for i := range m.pus {
		base := mapping.ClusterOf(i) * mapping.PUsPerCluster
		m.pus[i].active.ForEach(func(col int) {
			for k := 0; k < mapping.PUsPerCluster; k++ {
				out := m.gx[i][col][k]
				if out.Any() && base+k < len(m.pus) {
					m.enables[base+k] = m.enables[base+k].Or(out)
				}
			}
		})
	}

	// Phase 2: match (Port 2 multi-row activation) and activate.
	for i, u := range vec {
		m.v8[i] = int8(u)
	}
	for i := range m.pus {
		match := m.pus[i].matchVector(m.cfg.Rate, m.v8)
		m.newActive[i] = m.enables[i].And(match)
	}
	for i := range m.pus {
		m.pus[i].active = m.newActive[i]
	}

	// Phase 3: reporting (Port 1), pipelined with matching; stalls are
	// accounted when a region fills.
	stalledThisCycle := false
	cycle := m.kernelCycles
	for i := range m.pus {
		rep := m.pus[i].active.And(m.pus[i].reportMask)
		if !rep.Any() {
			continue
		}
		m.storeReport(i, rep, cycle, &stalledThisCycle)
		rep.ForEach(func(col int) {
			if s := m.place.StateAt[i][col]; s >= 0 {
				dst = append(dst, automata.StateID(s))
			}
		})
	}
	m.kernelCycles++
	if m.tel != nil {
		m.tel.kernelCycles.Inc()
	}
	return dst
}

// storeReport writes one report entry (preceded by stride markers when the
// cycle counter wrapped) into PU i's region, handling full-region events.
//
// A stride marker is an entry with all-zero report bits whose metadata
// holds a stride *delta*; the host accumulates deltas while reading, so
// strides larger than the metadata field chain across several markers
// ("the stride value is concatenated with all zeros ... written in the
// metadata + report data region", Section 7.1). A region flush resets the
// chain: the next report rewrites the full stride so the freshly cleared
// region decodes from zero.
func (m *Machine) storeReport(i int, rep bitvec.V256, cycle int64, stalled *bool) {
	u := &m.pus[i]
	mask := int64(1)<<uint(m.cfg.MetadataBits) - 1
	stride := cycle >> uint(m.cfg.MetadataBits)
	// Guard against configurations whose marker chain could never fit
	// (tiny metadata width vs. enormous silent gaps).
	if stride/mask >= int64(m.cfg.RegionCapacity())-1 {
		panic(fmt.Sprintf("core: MetadataBits=%d too small to mark stride %d within a %d-entry region",
			m.cfg.MetadataBits, stride, m.cfg.RegionCapacity()))
	}
	for {
		m.ensureSpace(i, stalled)
		// ensureSpace may have flushed the region, which restarts the
		// marker chain from zero (lastStride == -1); derive the next
		// chunk only after space is secured.
		cur := u.lastStride
		if cur < 0 {
			cur = 0
		}
		if cur >= stride {
			break
		}
		chunk := stride - cur
		if chunk > mask {
			chunk = mask
		}
		u.writeReportEntry(m.cfg, bitvec.V256{}, chunk)
		if m.flt != nil {
			m.recordParity(i)
		}
		m.energy.ReportWrites++
		u.strideMarkers++
		u.lastStride = cur + chunk
		if m.tel != nil {
			m.tel.puMarkers.Inc(i)
			m.tel.event(telemetry.EventStrideMarker, cycle, 0, i, u.occupied)
		}
	}
	// The loop exits immediately after an ensureSpace that wrote nothing,
	// so one free slot is guaranteed for the data entry.
	u.writeReportEntry(m.cfg, rep, cycle&mask)
	if m.flt != nil {
		m.recordParity(i)
	}
	m.energy.ReportWrites++
	u.reportEntries++
	u.lastStride = stride
	if m.tel != nil {
		m.tel.puEntries.Inc(i)
		m.tel.occupancy.Observe(int64(u.occupied))
		m.tel.event(telemetry.EventReportWrite, cycle, 0, i, u.occupied)
	}
}

// ensureSpace guarantees one free entry slot in PU i's region, performing
// the configured full-region action (flush, forced drain, or
// summarization) and accounting its stall. The stall window is shared by
// every region filling in the same cycle and charged to the first full
// PU, so the per-PU stallCycles fields sum to the aggregate exactly.
func (m *Machine) ensureSpace(i int, stalled *bool) {
	u := &m.pus[i]
	if u.occupied < m.cfg.RegionCapacity() {
		return
	}
	var charged int64
	var kind telemetry.EventKind
	switch {
	case m.cfg.SummarizeOnFull:
		if m.flt != nil {
			m.checkRegionParity(i)
		}
		batches := u.summarize(m.cfg)
		u.clearRegion(m.cfg)
		u.summaries++
		kind = telemetry.EventSummarize
		if !*stalled {
			charged = int64(batches * m.cfg.SummarizeStallCycles)
		}
	case m.cfg.FIFO:
		// Overflow: wait for the drain to free one entry. Concurrent
		// overflows share the wait window.
		if m.flt != nil {
			cap := m.cfg.RegionCapacity()
			m.checkSlotParity(i, (u.counter-u.occupied+cap)%cap)
		}
		u.occupied--
		u.consumed++
		u.flushes++
		m.energy.ExportedBits += int64(m.cfg.EntryBits())
		kind = telemetry.EventOverflow
		if !*stalled {
			charged = int64((m.cfg.EntryBits() + m.cfg.ExportBitsPerCycle - 1) / m.cfg.ExportBitsPerCycle)
		}
	default:
		// Whole-region flush; all full PUs flush in the same stall
		// window since each drains through its own Port 1.
		if m.flt != nil {
			m.checkRegionParity(i)
		}
		u.clearRegion(m.cfg)
		u.flushes++
		m.energy.ExportedBits += int64(m.cfg.ReportRows() * ColsPerSubarray)
		kind = telemetry.EventFlush
		if !*stalled {
			bits := m.cfg.ReportRows() * ColsPerSubarray
			charged = int64((bits + m.cfg.ExportBitsPerCycle - 1) / m.cfg.ExportBitsPerCycle)
		}
	}
	if charged > 0 {
		m.stallCycles += charged
		u.stallCycles += charged
		*stalled = true
	}
	if m.tel != nil {
		if kind == telemetry.EventSummarize {
			m.tel.puSummaries.Inc(i)
		} else {
			m.tel.puFlushes.Inc(i)
		}
		if charged > 0 {
			m.tel.stallCycles.Add(charged)
			m.tel.puStalls.Add(i, charged)
		}
		m.tel.event(kind, m.kernelCycles, charged, i, u.occupied)
	}
}

// drain models the FIFO strategy: the host continuously reads entries from
// the heads of occupied regions through Port 1 while matching proceeds on
// Port 2, sharing ExportBitsPerCycle across PUs round-robin.
func (m *Machine) drain() {
	m.drainCredit += int64(m.cfg.ExportBitsPerCycle)
	entry := int64(m.cfg.EntryBits())
	for m.drainCredit >= entry {
		target := -1
		for k := 0; k < len(m.pus); k++ {
			idx := (m.drainRR + k) % len(m.pus)
			if m.pus[idx].occupied > 0 {
				target = idx
				break
			}
		}
		if target < 0 {
			// Nothing to drain; credit does not bank indefinitely.
			if m.drainCredit > entry {
				m.drainCredit = entry
			}
			return
		}
		if m.flt != nil {
			// The popped head entry is about to be delivered: verify its
			// parity, then let the hook decide whether the row is silently
			// lost in flight. A dropped row still spends the read
			// bandwidth (timing is unaffected) but is never delivered, so
			// it does not count as consumed — the audit catches it.
			u := &m.pus[target]
			cap := m.cfg.RegionCapacity()
			m.checkSlotParity(target, (u.counter-u.occupied+cap)%cap)
			if m.flt.hook.DropDrain(target) {
				u.occupied--
			} else {
				u.occupied--
				u.consumed++
			}
		} else {
			m.pus[target].occupied--
			m.pus[target].consumed++
		}
		m.drainCredit -= entry
		m.energy.ExportedBits += entry
		m.drainRR = (target + 1) % len(m.pus)
		if m.tel != nil {
			m.tel.drained.Inc()
		}
	}
}

// Summarize performs on-demand report summarization of every PU
// (Section 5.1.2: the host may request it at any time; matching stalls for
// the batch NOR cycles) and returns, per automaton state ID, whether that
// report state has reported since the last summarize/flush. The region is
// cleared afterwards.
func (m *Machine) Summarize() map[automata.StateID]bool {
	out := make(map[automata.StateID]bool)
	maxBatches, maxPU := 0, 0
	for i := range m.pus {
		u := &m.pus[i]
		if m.flt != nil {
			m.checkRegionParity(i)
		}
		batches := u.summarize(m.cfg)
		if batches > maxBatches {
			maxBatches = batches
			maxPU = i
		}
		u.summary.ForEach(func(col int) {
			if s := m.place.StateAt[i][col]; s >= 0 {
				out[automata.StateID(s)] = true
			}
		})
		u.summary = bitvec.V256{}
		u.clearRegion(m.cfg)
		u.summaries++
		if m.tel != nil {
			m.tel.puSummaries.Inc(i)
		}
	}
	// All PUs summarize in parallel; the stall window is the longest
	// batch chain, attributed to the PU that needed it.
	charged := int64(maxBatches * m.cfg.SummarizeStallCycles)
	m.stallCycles += charged
	if len(m.pus) > 0 {
		m.pus[maxPU].stallCycles += charged
	}
	if m.tel != nil {
		if charged > 0 {
			m.tel.stallCycles.Add(charged)
			m.tel.puStalls.Add(maxPU, charged)
		}
		m.tel.event(telemetry.EventSummarize, m.kernelCycles, charged, maxPU, 0)
	}
	return out
}

// ReportRecord is one decoded entry of a report region.
type ReportRecord struct {
	// Cycle is the reconstructed absolute cycle (stride markers applied).
	Cycle int64
	// States are the automaton states that reported in that cycle.
	States []automata.StateID
}

// ReadReports decodes PU i's report region — the "easy access mechanism":
// reading reports is just reading memory rows. Only meaningful without
// FIFO drain (the host owns the read pointer there).
func (m *Machine) ReadReports(i int) []ReportRecord {
	u := &m.pus[i]
	var out []ReportRecord
	var stride int64
	mBits := m.cfg.ReportColumns
	for e := 0; e < u.occupied; e++ {
		row := m.cfg.MatchRows() + e/m.cfg.EntriesPerRow()
		base := (e % m.cfg.EntriesPerRow()) * m.cfg.EntryBits()
		var states []automata.StateID
		for k := 0; k < mBits; k++ {
			if u.rows[row].Get(base + k) {
				col := ColsPerSubarray - mBits + k
				if s := m.place.StateAt[i][col]; s >= 0 {
					states = append(states, automata.StateID(s))
				}
			}
		}
		var meta int64
		for j := 0; j < m.cfg.MetadataBits; j++ {
			if u.rows[row].Get(base + mBits + j) {
				meta |= 1 << uint(j)
			}
		}
		if len(states) == 0 {
			// Stride marker: all-zero report bits carrying a stride
			// delta; deltas accumulate across chained markers.
			stride += meta
			continue
		}
		out = append(out, ReportRecord{Cycle: stride<<uint(m.cfg.MetadataBits) | meta, States: states})
	}
	return out
}
