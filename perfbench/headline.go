package main

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"tcoram/internal/experiments"
	"tcoram/internal/pathoram"
	"tcoram/internal/sim"
	"tcoram/internal/workload"
)

const (
	// headlineSetups is how many times the cold first simulation is timed.
	headlineSetups = 5
	// headlineRoundLen is the run time each timed round of the comparison
	// stands for: a round takes 8–11 s on 2 vCPUs, so a 25 s run makes
	// two, then the ComputeHeadline pass.
	headlineRoundLen = 10 * time.Second
)

// job is one (program, scheme) cell of the §9.3 comparison.
type job struct {
	spec workload.Spec
	cfg  sim.Config
}

func headlineJobs() []job {
	var jobs []job
	for _, spec := range workload.Suite() {
		for _, cfg := range headlineSchemes() {
			jobs = append(jobs, job{spec, cfg})
		}
	}
	return jobs
}

// runHeadline is paper-headline: the paper's cycle-domain evaluation.
// Timed rounds run the §9.3 comparison's 66 sim.Run jobs (11 programs × 6
// schemes) on a closed-loop pool of experiments.Parallelism workers, timing
// each job; a last pass is experiments.ComputeHeadline(experiments.Quick())
// itself on the experiments worker pool. An op is one sim.Run job. The
// simulated statistics are seed-free and deterministic, so every round and
// the last pass must agree exactly. Set-up is the cold first simulation:
// one Quick base_dram run of the suite's first program.
func runHeadline(rc runConfig, o *outcome) error {
	first := headlineJobs()[0]
	var setups []float64
	for i := 0; i < headlineSetups; i++ {
		t0 := time.Now()
		if _, err := sim.Run(first.spec, first.cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Timed rounds of the whole comparison, one per headlineRoundLen of the
	// run (at least one). Each job's latency is its better quartile over
	// the rounds and the rate the better quartile over the passes, as on
	// the service workloads (bestQuarter).
	jobs := headlineJobs()
	n := max(1, int(rc.seconds/headlineRoundLen.Seconds()))
	var results []sim.Result
	var rounds [][]time.Duration
	var rates []float64
	cpu0 := cpuTime()
	for len(rounds) < n {
		t0 := time.Now()
		res, lat, err := runJobs(jobs, experiments.Parallelism)
		if err != nil {
			return err
		}
		rates = append(rates, float64(len(jobs))/time.Since(t0).Seconds())
		if results == nil {
			results = res
		}
		for _, err := range checkSameRuns(jobs, results, res) {
			o.checkErr(err)
		}
		rounds = append(rounds, lat)
	}
	cpu1 := cpuTime()
	t1 := time.Now()
	h := experiments.ComputeHeadline(experiments.Quick())
	chWall := time.Since(t1)
	cpu2 := cpuTime()
	chRate := float64(len(jobs)) / chWall.Seconds()
	rates = append(rates, chRate)
	o.attempted = uint64((len(rounds) + 1) * len(jobs))

	lat := make([]time.Duration, len(jobs))
	for i := range jobs {
		var ts []float64
		for _, r := range rounds {
			ts = append(ts, float64(r[i]))
		}
		lat[i] = time.Duration(bestQuarter(ts, false))
	}
	o.set("setup_s", median(setups))
	o.set("ops_per_s", bestQuarter(rates, true))
	o.set("lat_p50_ms", float64(quantile(lat, 0.50))/1e6)
	o.set("lat_p90_ms", float64(quantile(lat, 0.90))/1e6)
	o.set("client.lat_p99_ms", float64(quantile(lat, 0.99))/1e6)
	o.set("process.cpu_us_per_op", float64(cpu2-cpu0)/1e3/float64(o.attempted))
	o.set("rss_peak_mb", rssPeakMiB())

	mine := aggregateHeadline(results)
	o.check(mine == h, "ComputeHeadline disagrees with the same 66 simulations run again and aggregated here:\n  here:  %+v\n  there: %+v", mine, h)
	for _, err := range checkHeadline(h) {
		o.checkErr(err)
	}
	for _, err := range checkJobs(jobs, results) {
		o.checkErr(err)
	}

	if !rc.trace {
		return nil
	}
	var instrs uint64
	for _, j := range jobs {
		instrs += j.cfg.Instructions + j.cfg.WarmupInstrs
	}
	workers := min(experiments.Parallelism, len(jobs))
	o.set("sim_minstr_per_s", float64(instrs)/1e6/chWall.Seconds())
	o.set("sim_perf_x", h.DynPerfX)
	o.set("experiments.pool_busy_frac", float64(cpu2-cpu1)/(float64(chWall)*float64(workers)))
	o.set("trace.overhead_frac", 1-rates[0]/chRate) // the timed pool's first round against ComputeHeadline's
	g := pathoram.ShardGeometry(1<<16, 1, 3, blockBytes)
	if _, _, err := layerProbes(o, g, 1<<16, 4096, rc.seed); err != nil {
		return err
	}
	zeroUnless(o, "server.store_op_us", "server.shard_self_us", "server.ops_per_real_slot", "server.coalesced_per_op",
		"core.dummy_frac", "core.overdue_frac", "core.max_lag_ms", "core.rate_changes",
		"cluster.router_batch_us", "cluster.router_self_us",
		"persist.checkpoint_us", "persist.checkpoint_kib", "persist.checkpoints_per_op",
		"filestore.cache_hit_frac", "filestore.file_ios_per_op", "trace.unattributed_us")
	fmt.Printf("paper-headline: §9.3 suite averages (paper in brackets): base_oram %.2f× [3.35×], dynamic_R4_E4 %.2f× [4.03×], static_300 %.2f× [3.80×], dynamic dummies %.0f%% [34%%]\n",
		h.BaseORAMPerfX, h.DynPerfX, h.S300PerfX, h.DynDummyFrac*100)
	return nil
}

// runJobs runs jobs on a pool of workers, each taking the next job when its
// previous one is done, and returns results in job order with each job's
// wall time.
func runJobs(jobs []job, workers int) ([]sim.Result, []time.Duration, error) {
	results := make([]sim.Result, len(jobs))
	lat := make([]time.Duration, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				t0 := time.Now()
				results[i], errs[i] = sim.Run(jobs[i].spec, jobs[i].cfg)
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", jobs[i].spec.ID(), err)
		}
	}
	return results, lat, nil
}

// checkSameRuns verifies that a repeated round of the comparison produced
// exactly the simulated statistics of the first: the simulation is
// seed-free and deterministic.
func checkSameRuns(jobs []job, first, again []sim.Result) []error {
	var errs []error
	for i, j := range jobs {
		a, b := first[i], again[i]
		a.Config, b.Config = sim.Config{}, sim.Config{} // the same job's input
		if !reflect.DeepEqual(a, b) {
			errs = append(errs, fmt.Errorf("%s scheme %d: a repeated run gave different statistics", j.spec.ID(), j.cfg.Scheme))
		}
	}
	return errs
}

// aggregateHeadline averages the comparison over the suite the way the
// paper's §9.3 does: per-program slowdown against base_dram, then the mean.
// results holds, per program, base_dram, base_oram, dynamic, static 300,
// 500 and 1300 in that order.
func aggregateHeadline(results []sim.Result) experiments.Headline {
	const stride = 6
	n := float64(len(results) / stride)
	var h experiments.Headline
	for i := 0; i+stride <= len(results); i += stride {
		base, or, dy, s3, s5, s13 := results[i], results[i+1], results[i+2], results[i+3], results[i+4], results[i+5]
		h.BaseDRAMPowerW += base.Power.Watts() / n
		h.BaseORAMPerfX += or.PerfOverhead(base) / n
		h.BaseORAMPowerW += or.Power.Watts() / n
		h.DynPerfX += dy.PerfOverhead(base) / n
		h.DynPowerW += dy.Power.Watts() / n
		h.S300PerfX += s3.PerfOverhead(base) / n
		h.S300PowerW += s3.Power.Watts() / n
		h.S500PerfX += s5.PerfOverhead(base) / n
		h.S500PowerW += s5.Power.Watts() / n
		h.S1300PerfX += s13.PerfOverhead(base) / n
		h.S1300PowerW += s13.Power.Watts() / n
		h.DynDummyFrac += dy.Mem.DummyFraction() / n
	}
	h.DynVsORAMPerfPct = (h.DynPerfX/h.BaseORAMPerfX - 1) * 100
	h.DynVsORAMPowerPct = (h.DynPowerW/h.BaseORAMPowerW - 1) * 100
	h.S300VsDynPowerPct = (h.S300PowerW/h.DynPowerW - 1) * 100
	h.S500VsDynPowerPct = (h.S500PowerW/h.DynPowerW - 1) * 100
	h.S1300VsDynPerfPct = (h.S1300PerfX/h.DynPerfX - 1) * 100
	return h
}

// checkJobs verifies each program's cells: no scheme finishes in fewer
// cycles than base_dram, static schemes leak nothing through the ORAM
// timing channel, and dynamic_R4_E4 leaks |E|·lg|R| = 16 · lg 4 = 32 bits
// under the paper's accounting (|E| computed here from 2^30, 2^62 and ×4).
func checkJobs(jobs []job, results []sim.Result) []error {
	var errs []error
	var base sim.Result
	dynBits := float64(paperEpochs(4)) * lgRates(4)
	for i, j := range jobs {
		r := results[i]
		switch j.cfg.Scheme {
		case sim.BaseDRAM:
			base = r
			continue
		case sim.StaticORAM:
			if r.LeakageBits != 0 {
				errs = append(errs, fmt.Errorf("%s static_%d leaks %.1f bits, want 0", j.spec.ID(), j.cfg.StaticRate, float64(r.LeakageBits)))
			}
		case sim.DynamicORAM:
			if math.Abs(float64(r.LeakageBits)-dynBits) > 1e-9 {
				errs = append(errs, fmt.Errorf("%s dynamic_R4_E4 leaks %.1f bits, want %.0f", j.spec.ID(), float64(r.LeakageBits), dynBits))
			}
		}
		if r.Cycles < base.Cycles {
			errs = append(errs, fmt.Errorf("%s scheme %d ran %d cycles, fewer than base_dram's %d", j.spec.ID(), j.cfg.Scheme, r.Cycles, base.Cycles))
		}
	}
	return errs
}
