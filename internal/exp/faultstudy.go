package exp

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"sunder/internal/automata"
	"sunder/internal/core"
	"sunder/internal/faults"
	"sunder/internal/funcsim"
	"sunder/internal/mapping"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

// FaultStudyRow summarizes one benchmark run under fault injection with
// detection and recovery armed.
type FaultStudyRow struct {
	Name string
	// Injected counts fault manifestations (flips, stuck-at assertions,
	// drain drops); Detected counts detection events. One fault can trip
	// several detectors, so Detected may exceed Injected.
	Injected int64
	Detected int64
	// Recoveries counts windows that committed after at least one rewind;
	// Quarantined counts PUs retired onto spares.
	Recoveries  int64
	Quarantined int
	// Coverage is the detected fraction of injected faults, clamped to 1.
	Coverage float64
	// Slowdown is total cycles (committed + re-executed + backoff) over
	// fault-free cycles.
	Slowdown float64
	// OutputOK records whether the recovered report stream is identical,
	// cycle for cycle, to a fault-free functional simulation.
	OutputOK bool
}

// faultRef is one report: the input unit it ends on and its logical
// report point — the report's identity — plus its code.
type faultRef struct {
	unit   int64
	origin int32
	code   int32
}

func compareRefs(x, y faultRef) int {
	return cmp.Or(cmp.Compare(x.unit, y.unit), cmp.Compare(x.origin, y.origin))
}

// sameRefs compares two report lists as sets, both sorted by identity.
func sameRefs(a, b []faultRef) bool {
	slices.SortFunc(a, compareRefs)
	slices.SortFunc(b, compareRefs)
	return slices.Equal(a, b)
}

// FaultRun executes one workload under the given fault policy and checks
// the recovered output against a fault-free functional simulation. The
// machine is built fresh (the guard may replace it during quarantine).
func FaultRun(w *workload.Workload, rate int, cfg core.Config, pol faults.Policy, tel *telemetry.Collector) (FaultStudyRow, error) {
	row := FaultStudyRow{Name: w.Spec.Name}
	ua, err := transform.ToRate(w.Automaton, rate)
	if err != nil {
		return row, fmt.Errorf("%s: transform: %w", w.Spec.Name, err)
	}
	m, err := mapping.AutoReportColumns(ua, cfg.ReportColumns)
	if err != nil {
		return row, fmt.Errorf("%s: %w", w.Spec.Name, err)
	}
	cfg.ReportColumns = m
	place, err := mapping.Place(ua, cfg.ReportColumns)
	if err != nil {
		return row, fmt.Errorf("%s: place: %w", w.Spec.Name, err)
	}
	mach, err := core.Configure(ua, place, cfg)
	if err != nil {
		return row, fmt.Errorf("%s: configure: %w", w.Spec.Name, err)
	}

	units := funcsim.BytesToUnits(w.Input, 4)
	// The functional simulator's events are deduplicated per cycle by
	// (offset, origin), like the guard's emission rows.
	var want []faultRef
	for _, ev := range funcsim.RunUnits(ua, units).Events {
		want = append(want, faultRef{unit: ev.Unit, origin: ev.Origin, code: ev.Code})
	}

	g, err := faults.NewGuard(mach, ua, place, pol, nil)
	if err != nil {
		return row, fmt.Errorf("%s: guard: %w", w.Spec.Name, err)
	}
	if tel != nil {
		g.AttachTelemetry(tel)
	}
	var got []faultRef
	g.OnReportCycle(func(cycle int64, row []automata.Report) {
		for _, r := range row {
			got = append(got, faultRef{unit: cycle*int64(rate) + int64(r.Offset), origin: r.Origin, code: r.Code})
		}
	})
	stats, err := g.Run(units)
	if err != nil {
		return row, fmt.Errorf("%s: guarded run: %w", w.Spec.Name, err)
	}

	row.Injected = stats.Injected.Total()
	row.Detected = stats.Detected()
	row.Recoveries = stats.Recoveries
	row.Quarantined = len(stats.QuarantinedPUs)
	row.Coverage = 1
	if row.Injected > 0 {
		row.Coverage = min(1, float64(row.Detected)/float64(row.Injected))
	}
	row.Slowdown = stats.Slowdown()
	row.OutputOK = sameRefs(got, want)
	return row, nil
}

// FaultStudy runs the benchmarks under the fault policy at the default
// 16-bit configuration and reports detection coverage and recovery cost.
func FaultStudy(opts Options, names []string, pol faults.Policy) ([]FaultStudyRow, error) {
	var rows []FaultStudyRow
	for _, name := range names {
		w, err := workload.Get(name, opts.Scale, opts.InputLen)
		if err != nil {
			return nil, err
		}
		row, err := FaultRun(w, 4, core.DefaultConfig(4), pol, opts.Telemetry)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintFaultStudy renders the study.
func FprintFaultStudy(w io.Writer, rows []FaultStudyRow, pol faults.Policy) {
	fprintf(w, "Fault study: injection, detection, recovery (match=%g report=%g stuck=%d drop=%g seed=%d interval=%d)\n",
		pol.MatchFlipRate, pol.ReportFlipRate, pol.StuckXbarFaults, pol.DrainDropRate,
		pol.Seed, pol.CheckpointInterval)
	fprintf(w, "%-18s %9s %9s %9s %11s %12s %10s %8s\n",
		"Benchmark", "injected", "detected", "coverage", "recoveries", "quarantined", "slowdown", "output")
	for _, r := range rows {
		out := "OK"
		if !r.OutputOK {
			out = "DIVERGED"
		}
		fprintf(w, "%-18s %9d %9d %8.0f%% %11d %12d %9.3fx %8s\n",
			r.Name, r.Injected, r.Detected, 100*r.Coverage, r.Recoveries, r.Quarantined, r.Slowdown, out)
	}
}
