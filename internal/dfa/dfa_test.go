package dfa

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/funcsim"
	"sunder/internal/transform"
)

// event is one deduplicated report, the unit of output equivalence: the
// lazy DFA must emit exactly the functional simulator's events even when
// symbol-class row sharing makes its raw state sets differ.
type event struct {
	cycle  int64
	offset uint8
	origin int32
	code   int32
}

// runDFA executes input on a fresh runner and returns the events of the
// emission rows Step hands out plus reports/report-cycles accounting (the
// funcsim.Run contract).
func runDFA(t *testing.T, r *Runner, input []byte) (events []event, reports, reportCycles int64) {
	t.Helper()
	r.Reset()
	sb := r.Plan().StepBytes()
	cycles := (len(input) + sb - 1) / sb
	for c := 0; c < cycles; c++ {
		start := c * sb
		end := start + sb
		pad := 0
		if end > len(input) {
			pad = end - len(input)
			end = len(input)
		}
		row := r.Step(input[start:end], pad)
		if len(row) == 0 {
			continue
		}
		for _, rep := range row {
			events = append(events, event{
				cycle: int64(c), offset: rep.Offset, origin: rep.Origin, code: rep.Code,
			})
		}
		reports += int64(len(row))
		reportCycles++
	}
	return events, reports, reportCycles
}

// runSim is the reference: the functional simulator over the same padded
// unit stream, with each cycle's events sorted into the documented
// emission-row order (automata.EmissionRow: byte within the cycle, code,
// offset, origin). The simulator emits a cycle's events in
// device-state order; the multiset per cycle is what the two must share.
func runSim(a *automata.UnitAutomaton, input []byte) (events []event, reports, reportCycles int64) {
	units := funcsim.BytesToUnits(input, 4)
	res := funcsim.NewUnitSimulator(a).Run(units, funcsim.Options{RecordEvents: true})
	for _, ev := range res.Events {
		events = append(events, event{
			cycle: ev.Cycle, offset: uint8(ev.Unit - ev.Cycle*int64(a.Rate)), origin: ev.Origin, code: ev.Code,
		})
	}
	slices.SortFunc(events, func(x, y event) int {
		if c := cmp.Compare(x.cycle, y.cycle); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(x.offset/2, y.offset/2), cmp.Compare(x.code, y.code),
			cmp.Compare(x.offset, y.offset), cmp.Compare(x.origin, y.origin))
	})
	return events, res.Reports, res.ReportCycles
}

func eventsEqual(a, b []event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomByteNFA builds a small random byte automaton over a limited
// alphabet (so symbol classes genuinely collapse) with random structure.
func randomByteNFA(rng *rand.Rand) *automata.Automaton {
	nfa := automata.NewAutomaton()
	n := 2 + rng.Intn(10)
	alpha := []byte("abcABd.\x00\xff")
	for i := 0; i < n; i++ {
		var m bitvec.V256
		switch rng.Intn(4) {
		case 0: // full set: exercises pad don't-care
			for b := 0; b < 256; b++ {
				m.Set(b)
			}
		default:
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				m.Set(int(alpha[rng.Intn(len(alpha))]))
			}
		}
		st := automata.State{Match: m}
		switch rng.Intn(3) {
		case 0:
			st.Start = automata.StartAllInput
		case 1:
			if i == 0 {
				st.Start = automata.StartOfData
			}
		}
		if rng.Intn(3) == 0 {
			st.Report = true
			st.ReportCode = int32(i + 1)
		}
		nfa.AddState(st)
	}
	// Guarantee a start state.
	nfa.States[0].Start = automata.StartAllInput
	for i := 0; i < n; i++ {
		e := rng.Intn(3)
		for j := 0; j < e; j++ {
			nfa.AddEdge(automata.StateID(i), automata.StateID(rng.Intn(n)))
		}
	}
	// Guarantee at least one report state.
	nfa.States[n-1].Report = true
	nfa.States[n-1].ReportCode = int32(n)
	nfa.Normalize()
	return nfa
}

func randomInput(rng *rand.Rand, n int) []byte {
	alpha := []byte("abcABd.\x00\xffxyz")
	out := make([]byte, n)
	for i := range out {
		out[i] = alpha[rng.Intn(len(alpha))]
	}
	return out
}

func certifiedPlan(t *testing.T, nfa *automata.Automaton, ua *automata.UnitAutomaton) *Plan {
	t.Helper()
	cert := analysis.SymbolClasses(nfa)
	if err := analysis.CheckSymbolClasses(nfa, cert); err != nil {
		t.Fatalf("symbol classes: %v", err)
	}
	p, err := NewPlan(ua, cert.Class, cert.Count())
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	return p
}

func TestSupported(t *testing.T) {
	nfa := randomByteNFA(rand.New(rand.NewSource(1)))
	for _, rate := range []int{2, 4} {
		ua, err := transform.ToRate(nfa, rate)
		if err != nil {
			t.Fatal(err)
		}
		if ok, reason := Supported(ua); !ok {
			t.Fatalf("rate %d: unsupported: %s", rate, reason)
		}
	}
	ua, err := transform.ToRate(nfa, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := Supported(ua); ok {
		t.Fatal("rate 1 must be unsupported (cycles split bytes)")
	}
}

// TestDifferentialVsFuncsim drives random automata and inputs through the
// lazy DFA under the certified symbol-class partition and the identity
// partition, at both supported rates, including odd lengths (pad cycles)
// and repeated runs on one runner (warm cache). Both plan orders run, so
// each partition sees both draws of inputs: emission must not depend on
// which bytes of a symbol class built a cached state.
func TestDifferentialVsFuncsim(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var identity [256]uint16
	for b := range identity {
		identity[b] = uint16(b)
	}
	type namedPlan struct {
		name string
		plan *Plan
	}
	for trial := 0; trial < 60; trial++ {
		nfa := randomByteNFA(rng)
		for _, rate := range []int{2, 4} {
			ua, err := transform.ToRate(nfa, rate)
			if err != nil {
				t.Fatal(err)
			}
			idp, err := NewPlan(ua, identity, 256)
			if err != nil {
				t.Fatal(err)
			}
			id := namedPlan{"identity", idp}
			cert := namedPlan{"certified", certifiedPlan(t, nfa, ua)}
			for _, order := range [][]namedPlan{{id, cert}, {cert, id}} {
				for _, np := range order {
					r := NewRunner(np.plan, DefaultConfig())
					for run := 0; run < 2; run++ {
						input := randomInput(rng, rng.Intn(40))
						want, wantRep, wantRC := runSim(ua, input)
						got, gotRep, gotRC := runDFA(t, r, input)
						if !eventsEqual(got, want) {
							t.Fatalf("trial %d rate %d %s (%s first) run %d: events diverge\n got %v\nwant %v",
								trial, rate, np.name, order[0].name, run, got, want)
						}
						if gotRep != wantRep || gotRC != wantRC {
							t.Fatalf("trial %d rate %d %s: reports %d/%d want %d/%d",
								trial, rate, np.name, gotRep, gotRC, wantRep, wantRC)
						}
					}
				}
			}
		}
	}
}

// TestLRUEviction forces a tiny cache so transitions constantly evict and
// re-miss, and checks the output still matches the reference.
func TestLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		nfa := randomByteNFA(rng)
		ua, err := transform.ToRate(nfa, 4)
		if err != nil {
			t.Fatal(err)
		}
		plan := certifiedPlan(t, nfa, ua)
		// BlowupRatio 10: evictions happen but the fallback never arms,
		// exercising the dead-husk re-miss path throughout.
		r := NewRunner(plan, Config{MaxStates: 2, BlowupRatio: 10})
		input := randomInput(rng, 300)
		want, wantRep, wantRC := runSim(ua, input)
		got, gotRep, gotRC := runDFA(t, r, input)
		if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
			t.Fatalf("trial %d: output diverges under eviction pressure", trial)
		}
		if r.Stats().Evictions == 0 && r.Stats().States > 2 {
			t.Fatalf("trial %d: expected evictions with MaxStates=2, stats %+v", trial, r.Stats())
		}
	}
}

// TestBlowupFallback pins the fallback path: a thrashing cache must abandon
// determinization mid-run and finish on direct NFA stepping with identical
// output.
func TestBlowupFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fell := false
	for trial := 0; trial < 40 && !fell; trial++ {
		nfa := randomByteNFA(rng)
		ua, err := transform.ToRate(nfa, 4)
		if err != nil {
			t.Fatal(err)
		}
		plan := certifiedPlan(t, nfa, ua)
		r := NewRunner(plan, Config{MaxStates: 2, BlowupRatio: 0.01})
		input := randomInput(rng, 400)
		want, wantRep, wantRC := runSim(ua, input)
		got, gotRep, gotRC := runDFA(t, r, input)
		if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
			t.Fatalf("trial %d: output diverges across fallback", trial)
		}
		if r.Stats().Fallbacks > 0 {
			if !r.FellBack() {
				t.Fatal("Fallbacks counted but FellBack false before Reset")
			}
			fell = true
		}
	}
	if !fell {
		t.Fatal("no trial exercised the blowup fallback; tighten the config")
	}
}

// TestCacheSurvivesReset checks the warm-cache contract: a second identical
// run is served almost entirely from cache.
func TestCacheSurvivesReset(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nfa := randomByteNFA(rng)
	ua, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := certifiedPlan(t, nfa, ua)
	r := NewRunner(plan, DefaultConfig())
	input := randomInput(rng, 200)
	runDFA(t, r, input)
	misses := r.Stats().Misses
	runDFA(t, r, input)
	if r.Stats().Misses != misses {
		t.Fatalf("second identical run missed the cache: %d -> %d misses", misses, r.Stats().Misses)
	}
	if r.Stats().Hits == 0 {
		t.Fatal("second run recorded no hits")
	}
}

func TestNewPlanRejects(t *testing.T) {
	nfa := randomByteNFA(rand.New(rand.NewSource(19)))
	ua, err := transform.ToRate(nfa, 1)
	if err != nil {
		t.Fatal(err)
	}
	var identity [256]uint16
	if _, err := NewPlan(ua, identity, 1); err == nil {
		t.Fatal("rate-1 plan must be rejected")
	}
	ua4, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := identity
	bad[7] = 9
	if _, err := NewPlan(ua4, bad, 2); err == nil {
		t.Fatal("out-of-range class must be rejected")
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nfa := randomByteNFA(rng)
	ua, err := transform.ToRate(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := certifiedPlan(t, nfa, ua)
	r := NewRunner(plan, DefaultConfig())
	for _, n := range []int{0, 1, 2, 3} {
		input := randomInput(rng, n)
		want, wantRep, wantRC := runSim(ua, input)
		got, gotRep, gotRC := runDFA(t, r, input)
		if !eventsEqual(got, want) || gotRep != wantRep || gotRC != wantRC {
			t.Fatalf("len %d: tiny-input divergence", n)
		}
	}
}
