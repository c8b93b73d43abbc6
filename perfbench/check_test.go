package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"tcoram/internal/core"
	"tcoram/internal/experiments"
	"tcoram/internal/server"
	"tcoram/internal/sim"
	"tcoram/internal/workload"
)

// Each check gets a correct output, which it must accept, and a wrong one,
// which it must reject.

func TestCheckRead(t *testing.T) {
	want := make([]byte, 64)
	fillPayload(want, 7, 0, 1)
	if err := checkRead(7, append([]byte(nil), want...), want, 64); err != nil {
		t.Fatalf("exact copy rejected: %v", err)
	}
	if err := checkRead(9, make([]byte, 64), nil, 64); err != nil {
		t.Fatalf("zero block never written rejected: %v", err)
	}
	stale := make([]byte, 64) // a later write to the same block: the address matches, the rest does not
	fillPayload(stale, 7, 0, 2)
	if err := checkRead(7, stale, want, 64); err == nil {
		t.Fatal("a different write of the same block accepted")
	}
	flipped := append([]byte(nil), want...)
	flipped[63] ^= 1
	if err := checkRead(7, flipped, want, 64); err == nil {
		t.Fatal("last byte flipped accepted")
	}
	if err := checkRead(9, want, nil, 64); err == nil {
		t.Fatal("data in a never-written block accepted")
	}
	if err := checkRead(7, want[:32], want, 64); err == nil {
		t.Fatal("short read accepted")
	}
}

// pacedHistory is a shard's rate history with n transitions, alternating
// between the first two rates of R.
func pacedHistory(rates []uint64, n int) []core.RateChange {
	h := []core.RateChange{{Cycle: 0, Rate: rates[len(rates)-1], Epoch: 0}}
	end, length := uint64(1000), uint64(1000)
	for i := 1; i <= n; i++ {
		h = append(h, core.RateChange{Cycle: end, Rate: rates[i%2], Epoch: i})
		length *= 2
		end += length
	}
	return h
}

func goodLeakage() (server.Stats, leakageSpec) {
	rates := []uint64{985, 1985, 3985, 7985}
	ls := leakageSpec{rates: rates, olat: 15, firstLen: 1000, growth: 2, untilLo: 100_000, untilHi: 100_000,
		tenantsWithTraffic: []string{"alice"}}
	st := server.Stats{
		Shards: []server.ShardStats{
			{Shard: 0, RateChanges: pacedHistory(rates, 3), LeakedBits: 6},
			{Shard: 1, RateChanges: pacedHistory(rates, 2), LeakedBits: 4},
		},
		LeakedBits: 10,
		Tenants:    []server.TenantStat{{Tenant: "alice", Transitions: 3, LeakedBits: 6}},
	}
	return st, ls
}

func TestCheckLeakage(t *testing.T) {
	st, ls := goodLeakage()
	if errs := checkLeakage(st, ls); len(errs) > 0 {
		t.Fatalf("consistent account rejected: %v", errs)
	}
	for name, spoil := range map[string]func(*server.Stats, *leakageSpec){
		"shard bits":         func(s *server.Stats, _ *leakageSpec) { s.Shards[0].LeakedBits = 5; s.LeakedBits = 9 },
		"store total":        func(s *server.Stats, _ *leakageSpec) { s.LeakedBits = 12 },
		"rate outside R":     func(s *server.Stats, _ *leakageSpec) { s.Shards[1].RateChanges[1].Rate = 1000 },
		"more than |E|":      func(_ *server.Stats, l *leakageSpec) { l.untilHi = 2000 },
		"tenant bits":        func(s *server.Stats, _ *leakageSpec) { s.Tenants[0].LeakedBits = 4 },
		"tenant overcharged": func(s *server.Stats, _ *leakageSpec) { s.Tenants[0].Transitions, s.Tenants[0].LeakedBits = 9, 18 },
		"tenant missing":     func(s *server.Stats, _ *leakageSpec) { s.Tenants = nil },
		"no history":         func(s *server.Stats, _ *leakageSpec) { s.Shards[0].RateChanges = nil },
	} {
		s, l := goodLeakage()
		spoil(&s, &l)
		if errs := checkLeakage(s, l); len(errs) == 0 {
			t.Errorf("%s: wrong account accepted", name)
		}
	}
}

func TestEpochsBy(t *testing.T) {
	// Boundaries of a 1000-cycle first epoch, doubling: 1000, 3000, 7000, 15000.
	for until, want := range map[uint64]int{999: 0, 1000: 1, 2999: 1, 3000: 2, 14999: 3, 15000: 4} {
		if got := epochsBy(1000, 2, until); got != want {
			t.Errorf("epochsBy(1000, 2, %d) = %d, want %d", until, got, want)
		}
	}
}

func TestCheckGrid(t *testing.T) {
	// One rate, 985 cycles, OLAT 15: slots start at 985, 1985, 2985, …
	h := []core.RateChange{{Cycle: 0, Rate: 985}}
	if got := gridSlots(h, 15, 10_000); got != 10 {
		t.Fatalf("gridSlots = %d, want 10", got)
	}
	if got, want := gridSlots(h, 15, 10_000), uint64(len(core.PredictSlots(h, 15, 10_000))); got != want {
		t.Fatalf("gridSlots = %d, the adversary's reconstruction %d", got, want)
	}
	ls := leakageSpec{olat: 15, untilLo: 10_000, untilHi: 10_000}
	ok := server.Stats{Shards: []server.ShardStats{{RateChanges: h, RealAccesses: 4, DummyAccesses: 5}}}
	if errs := checkGrid(ok, ls); len(errs) > 0 {
		t.Fatalf("one slot short (in flight) rejected: %v", errs)
	}
	for _, issued := range []uint64{8, 12} {
		bad := server.Stats{Shards: []server.ShardStats{{RateChanges: h, RealAccesses: issued}}}
		if errs := checkGrid(bad, ls); len(errs) == 0 {
			t.Errorf("%d slots against a grid of 10 accepted", issued)
		}
	}
}

func TestPaperEpochs(t *testing.T) {
	// Example 6.1 and §9.5: 32 epochs doubling, 16 at ×4, 11 at ×8, 8 at ×16.
	for growth, want := range map[uint64]int{2: 32, 4: 16, 8: 11, 16: 8} {
		if got := paperEpochs(growth); got != want {
			t.Errorf("paperEpochs(%d) = %d, want %d", growth, got, want)
		}
	}
}

func goodHeadline() experiments.Headline {
	return experiments.Headline{BaseORAMPerfX: 3.2, DynPerfX: 4.3, S300PerfX: 3.9, S500PerfX: 4.5, S1300PerfX: 6.9, DynDummyFrac: 0.35}
}

func TestCheckHeadline(t *testing.T) {
	if errs := checkHeadline(goodHeadline()); len(errs) > 0 {
		t.Fatalf("plausible headline rejected: %v", errs)
	}
	for name, spoil := range map[string]func(*experiments.Headline){
		"faster than base_dram": func(h *experiments.Headline) { h.DynPerfX = 0.9 },
		"static falls":          func(h *experiments.Headline) { h.S1300PerfX = 4.0 },
		"no dummies":            func(h *experiments.Headline) { h.DynDummyFrac = 0 },
		"all dummies":           func(h *experiments.Headline) { h.DynDummyFrac = 1 },
	} {
		h := goodHeadline()
		spoil(&h)
		if errs := checkHeadline(h); len(errs) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

// fakeJobs is one program's six cells with plausible results.
func fakeJobs() ([]job, []sim.Result) {
	spec := workload.Suite()[0]
	var jobs []job
	var res []sim.Result
	for i, cfg := range headlineSchemes() {
		jobs = append(jobs, job{spec, cfg})
		r := sim.Result{Cycles: uint64(1000 * (i + 1))}
		if cfg.Scheme == sim.DynamicORAM {
			r.LeakageBits = 32
		}
		res = append(res, r)
	}
	return jobs, res
}

func TestCheckJobs(t *testing.T) {
	jobs, res := fakeJobs()
	if errs := checkJobs(jobs, res); len(errs) > 0 {
		t.Fatalf("plausible cells rejected: %v", errs)
	}
	for name, spoil := range map[string]func([]sim.Result){
		"static leaks":          func(r []sim.Result) { r[3].LeakageBits = 2 },
		"dynamic leaks 64":      func(r []sim.Result) { r[2].LeakageBits = 64 },
		"faster than base":      func(r []sim.Result) { r[4].Cycles = 10 },
		"dynamic leaks nothing": func(r []sim.Result) { r[2].LeakageBits = 0 },
	} {
		jobs, res := fakeJobs()
		spoil(res)
		if errs := checkJobs(jobs, res); len(errs) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAggregateHeadlineSeesAChangedRun(t *testing.T) {
	_, res := fakeJobs()
	a := aggregateHeadline(res)
	res[2].Cycles++
	if aggregateHeadline(res) == a {
		t.Fatal("a different dynamic run left the headline unchanged: the determinism check could not fail")
	}
}

func TestCheckSameRuns(t *testing.T) {
	jobs, first := fakeJobs()
	_, again := fakeJobs()
	again[0].Config.Seed = 99 // the input is not compared
	if errs := checkSameRuns(jobs, first, again); len(errs) > 0 {
		t.Fatalf("identical statistics rejected: %v", errs)
	}
	again[5].Mem.DummyAccesses++
	if errs := checkSameRuns(jobs, first, again); len(errs) != 1 {
		t.Fatalf("a repeated run with one changed statistic gave %d errors, want 1", len(errs))
	}
}

func TestReportNeedsSamples(t *testing.T) {
	o := newOutcome()
	p := phase{ops: 10, samples: 10, elapsed: time.Second, wins: make([]window, minWindows)}
	reportE2E(o, p, 1)
	if len(o.problems) == 0 {
		t.Fatal("a run with 10 latency samples passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables here in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory")
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the benchmark reports %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if strings.Join(b.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
}
