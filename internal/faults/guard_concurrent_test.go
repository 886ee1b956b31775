package faults

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/regex"
)

// TestGuardRejectsConcurrentUse pins the concurrency contract
// deterministically: while one exported call is in flight (simulated by
// holding the busy flag), Feed, Finish and Run all return ErrConcurrentUse
// without corrupting guard state, and the guard works normally afterwards.
func TestGuardRejectsConcurrentUse(t *testing.T) {
	pats := []regex.Pattern{{Expr: `ab+c`, Code: 1}}
	cfg := core.DefaultConfig(2)
	m, ua, place := build(t, pats, cfg)
	pol := DefaultPolicy()
	pol.CheckpointInterval = 64
	g, err := NewGuard(m, ua, place, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []funcsim.ReportEvent
	g.OnReportCycle(record(&got, cfg.Rate))
	units := funcsim.PadUnits(funcsim.BytesToUnits([]byte(strings.Repeat("xabbcy", 50)), 4), cfg.Rate)

	g.busy.Store(true) // another call is "executing"
	if err := g.Feed(units); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("Feed during in-flight call: err = %v, want ErrConcurrentUse", err)
	}
	if err := g.Finish(); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("Finish during in-flight call: err = %v, want ErrConcurrentUse", err)
	}
	if _, err := g.Run(units); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("Run during in-flight call: err = %v, want ErrConcurrentUse", err)
	}
	if g.Err() != nil {
		t.Fatalf("ErrConcurrentUse stuck as sticky error: %v", g.Err())
	}
	g.busy.Store(false)

	// The rejection must not have consumed input or moved the stream.
	stats, err := g.Run(units)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, got, reference(ua, units))
	if want := int64(len(units) / cfg.Rate); stats.CommittedCycles != want {
		t.Fatalf("CommittedCycles = %d, want %d", stats.CommittedCycles, want)
	}
}

// TestGuardConcurrentHammer drives one guard from several goroutines at
// once: every call must either execute cleanly or be rejected with
// ErrConcurrentUse, and the committed stream must account for exactly the
// successful feeds. Run under -race this also proves rejection happens
// before any shared state is touched.
func TestGuardConcurrentHammer(t *testing.T) {
	pats := []regex.Pattern{{Expr: `ab+c`, Code: 1}}
	cfg := core.DefaultConfig(2)
	m, ua, place := build(t, pats, cfg)
	pol := DefaultPolicy()
	pol.CheckpointInterval = 32
	g, err := NewGuard(m, ua, place, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One window of input per Feed, so nothing lingers in pending and the
	// committed cycle count is exactly successes × interval.
	window := funcsim.PadUnits(funcsim.BytesToUnits([]byte(strings.Repeat("abbc", 8)), 4), cfg.Rate)
	if len(window) != pol.CheckpointInterval*cfg.Rate {
		t.Fatalf("window is %d units, want %d", len(window), pol.CheckpointInterval*cfg.Rate)
	}

	var fed, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch err := g.Feed(window); {
				case err == nil:
					fed.Add(1)
				case errors.Is(err, ErrConcurrentUse):
					rejected.Add(1)
				default:
					t.Errorf("Feed: unexpected error %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	if g.Err() != nil {
		t.Fatalf("sticky error after hammer: %v", g.Err())
	}
	if fed.Load() == 0 {
		t.Fatal("no Feed ever succeeded")
	}
	stats := g.Stats()
	if want := fed.Load() * int64(pol.CheckpointInterval); stats.CommittedCycles != want {
		t.Fatalf("CommittedCycles = %d, want %d (%d fed, %d rejected)",
			stats.CommittedCycles, want, fed.Load(), rejected.Load())
	}
}

// TestGuardBackoffUnderConcurrentHammer hammers a guard whose injector has
// scheduled transient faults, so the retry/backoff ladder actually runs
// while concurrent callers fight over the busy flag. Window numbering is
// global and sequential regardless of which goroutine's Feed wins, so the
// fault process — and therefore the retry accounting — is deterministic:
// each scheduled flip costs exactly one rewind at the first-retry backoff
// price, attempts stay capped by MaxRetries (geometric bound
// BackoffCycles·(2^MaxRetries−1) per window ladder), and the hammer leaves
// no goroutines behind. Run under -race this also proves the ladder's
// bookkeeping is never touched by a rejected caller.
func TestGuardBackoffUnderConcurrentHammer(t *testing.T) {
	before := runtime.NumGoroutine()

	pats := []regex.Pattern{{Expr: `ab+c`, Code: 1}}
	cfg := core.DefaultConfig(2)
	m, ua, place := build(t, pats, cfg)
	pol := DefaultPolicy()
	pol.CheckpointInterval = 32
	pol.MaxRetries = 2
	pol.BackoffCycles = 16
	inj, err := NewInjector(pol)
	if err != nil {
		t.Fatal(err)
	}
	// Three transient flips in the first three windows (cycles 10, 40, 70):
	// a scheduled flip fires once, the scrub detects it at the checkpoint,
	// and the retry re-executes clean.
	inj.ScheduleMatchFlip(10, 0, 2, 7)
	inj.ScheduleMatchFlip(40, 0, 5, 255)
	inj.ScheduleMatchFlip(70, 0, 15, 0)
	g, err := NewGuard(m, ua, place, pol, inj)
	if err != nil {
		t.Fatal(err)
	}
	window := funcsim.PadUnits(funcsim.BytesToUnits([]byte(strings.Repeat("abbc", 8)), 4), cfg.Rate)
	if len(window) != pol.CheckpointInterval*cfg.Rate {
		t.Fatalf("window is %d units, want %d", len(window), pol.CheckpointInterval*cfg.Rate)
	}

	var fed, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch err := g.Feed(window); {
				case err == nil:
					fed.Add(1)
				case errors.Is(err, ErrConcurrentUse):
					rejected.Add(1)
				default:
					t.Errorf("Feed: unexpected error %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}

	stats := g.Stats()
	if stats.Injected.MatchFlips != 3 {
		t.Fatalf("injected %d match flips, want 3 (fed %d windows)", stats.Injected.MatchFlips, fed.Load())
	}
	if stats.Recoveries != 3 {
		t.Fatalf("Recoveries = %d, want 3", stats.Recoveries)
	}
	if stats.Quarantines != 0 {
		t.Fatalf("Quarantines = %d, want 0 (transients must not escalate)", stats.Quarantines)
	}
	// Each flip recovered on the first retry, so each window paid exactly
	// the base backoff; nothing may exceed the MaxRetries geometric cap.
	if want := 3 * int64(pol.BackoffCycles); stats.BackoffCycles != want {
		t.Fatalf("BackoffCycles = %d, want %d", stats.BackoffCycles, want)
	}
	ladderCap := int64(pol.BackoffCycles) * (1<<uint(pol.MaxRetries) - 1)
	if maxTotal := fed.Load() * ladderCap; stats.BackoffCycles > maxTotal {
		t.Fatalf("BackoffCycles %d exceeds the capped-attempts bound %d", stats.BackoffCycles, maxTotal)
	}
	if stats.ReExecutedCycles <= 0 || stats.ReExecutedCycles > 3*int64(pol.CheckpointInterval) {
		t.Fatalf("ReExecutedCycles = %d, want in (0, %d]", stats.ReExecutedCycles, 3*pol.CheckpointInterval)
	}
	if want := fed.Load() * int64(pol.CheckpointInterval); stats.CommittedCycles != want {
		t.Fatalf("CommittedCycles = %d, want %d (%d fed, %d rejected)",
			stats.CommittedCycles, want, fed.Load(), rejected.Load())
	}

	// The guard is purely synchronous: the hammer must leave no goroutines
	// behind once the workers join.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak: %d before hammer, %d after", before, now)
	}
}
