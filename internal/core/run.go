package core

import (
	"sunder/internal/automata"
	"sunder/internal/funcsim"
)

// Result aggregates a machine run; the stall/flush fields are the Table 4
// columns.
type Result struct {
	KernelCycles int64
	StallCycles  int64
	Flushes      int64
	Summaries    int64

	Reports            int64
	ReportCycles       int64
	MaxReportsPerCycle int
	Events             []funcsim.ReportEvent
}

// Overhead returns the reporting slowdown (kernel+stall)/kernel.
func (r *Result) Overhead() float64 {
	if r.KernelCycles == 0 {
		return 1
	}
	return float64(r.KernelCycles+r.StallCycles) / float64(r.KernelCycles)
}

// RunOptions configures a Machine run.
type RunOptions struct {
	// RecordEvents keeps the full report event list.
	RecordEvents bool
}

// Run streams a unit input (padded to the rate) through the machine and
// returns aggregate results. Each reporting cycle contributes its
// automata.EmissionRow — its reports deduplicated by (offset, origin),
// exactly as the functional simulator counts them, and sorted into
// ascending (position, code) — so Events are in ascending (position, code)
// order. Events leave State unset: one row entry may stand for several
// simultaneously active states.
func (m *Machine) Run(units []funcsim.Unit, opts RunOptions) *Result {
	res := &Result{}
	m.RunInto(res, units, opts)
	return res
}

// RunInto is Run writing into res, so callers running many short spans on
// one machine (prefilter windows) allocate no result per span: it adds the
// span's report counts and events to res and sets its cycle, stall, flush
// and summary fields to the machine's running totals.
func (m *Machine) RunInto(res *Result, units []funcsim.Unit, opts RunOptions) {
	units = funcsim.PadUnits(units, m.cfg.Rate)
	rate := int64(m.cfg.Rate)
	for off := 0; off < len(units); off += m.cfg.Rate {
		cycle := m.kernelCycles
		row := m.StepRow(units[off : off+m.cfg.Rate])
		if len(row) == 0 {
			continue
		}
		if opts.RecordEvents {
			for _, r := range row {
				res.Events = append(res.Events, funcsim.ReportEvent{
					Cycle:  cycle,
					Unit:   cycle*rate + int64(r.Offset),
					Code:   r.Code,
					Origin: r.Origin,
				})
			}
		}
		res.ReportCycles++
		res.Reports += int64(len(row))
		res.MaxReportsPerCycle = max(res.MaxReportsPerCycle, len(row))
	}
	res.KernelCycles = m.kernelCycles
	res.StallCycles = m.stallCycles
	res.Flushes = m.Flushes()
	res.Summaries = m.Summaries()
}

// StepRow is the device step of every run that emits reports: it executes
// one cycle like Step and returns the cycle's automata.EmissionRow (nil
// when nothing reported) — the one entry the device writes in place for
// the cycle — counting it in device_reports and device_report_cycles when
// telemetry is attached. The row is owned by the machine: read it before
// the next StepRow. Step itself counts no reports: warm-up replay emits
// nothing, and the fault guard counts its rows when their window commits.
func (m *Machine) StepRow(vec []funcsim.Unit) []automata.Report {
	m.ids = m.Step(vec, m.ids[:0])
	if len(m.ids) == 0 {
		return nil
	}
	m.row = m.a.EmissionRow(m.row, m.ids)
	if m.tel != nil {
		m.tel.reportCycles.Inc()
		m.tel.reports.Add(int64(len(m.row)))
	}
	return m.row
}
