// Command perfbench is tcoram's benchmark: one process drives one named
// workload through the public APIs of server, cluster, pathoram, crypt, sim
// and experiments, checks every output, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd); with -trace 1
// the run times each layer from the benchmark's own code and prints the
// per-layer set (perLayer) plus a per-request waterfall. -steady N runs the
// workload N times in child processes and prints each end-to-end metric's
// quartiles against its bound in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees; every workload reports all of
// them (paper-headline's "op" is one sim.Run job). The p99 latency and the
// CPU per op are per-layer metrics: on this shared 2-vCPU host neither held
// a bound of 25 % across ten runs on every workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p90_ms", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer is what the traced run reports. Layers a workload bypasses read
// 0 (see README.md for which metric should move which end-to-end figure).
var perLayer = []metricDef{
	{"pathoram.access_us", "us", "lower"},
	{"pathoram.batch_slot_us", "us", "lower"},
	{"pathoram.bytes_per_access", "B", "lower"},
	{"pathoram.stash_peak", "blocks", "lower"},
	{"crypt.ctr_ns_per_kib", "ns/KiB", "lower"},
	{"crypt.seal_us", "us", "lower"},
	{"server.store_op_us", "us", "lower"},
	{"server.shard_self_us", "us", "lower"},
	{"server.ops_per_real_slot", "ops/slot", "higher"},
	{"server.coalesced_per_op", "ratio", "higher"},
	{"core.dummy_frac", "ratio", "lower"},
	{"core.overdue_frac", "ratio", "lower"},
	{"core.max_lag_ms", "ms", "lower"},
	{"core.rate_changes", "count", "lower"},
	{"wire.rtt_us", "us", "lower"},
	{"wire.batch_rtt_us", "us", "lower"},
	{"wire.self_us", "us", "lower"},
	{"cluster.router_batch_us", "us", "lower"},
	{"cluster.router_self_us", "us", "lower"},
	{"persist.checkpoint_us", "us", "lower"},
	{"persist.checkpoint_kib", "KiB", "lower"},
	{"persist.checkpoints_per_op", "ratio", "lower"},
	{"filestore.cache_hit_frac", "ratio", "higher"},
	{"filestore.file_ios_per_op", "ios/op", "lower"},
	{"sim.run_s.base_dram", "s", "lower"},
	{"sim.run_s.dynamic", "s", "lower"},
	{"sim.minstr_per_s.serial", "Minstr/s", "higher"},
	{"sim.dummy_frac", "ratio", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"sim_perf_x", "x", "lower"},
	{"experiments.pool_busy_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unattributed_us", "us", "lower"},
	{"client.lat_p99_ms", "ms", "lower"},
	{"process.cpu_us_per_op", "us", "lower"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dataDir string // scratch root for file-backed stores
}

// workloadFn runs one workload and fills o.
type workloadFn func(rc runConfig, o *outcome) error

var workloads = map[string]workloadFn{
	"engine-unpaced": runEngine,
	"routed-cdsi":    runRouted,
	"paced-durable":  runPaced,
	"paper-headline": runHeadline,
}

func main() {
	name := flag.String("workload", "", "workload: engine-unpaced, routed-cdsi, paced-durable or paper-headline")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and print quartiles against BENCHMARK.json bounds")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*name, *seed, *seconds, *steady); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rc := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		dataDir: filepath.Join(wd, ".bench_build", "data", fmt.Sprintf("%s-%d", *name, os.Getpid())),
	}
	o := newOutcome()
	err = fn(rc, o)
	os.RemoveAll(rc.dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	line, err := o.report(want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	fmt.Println(line)
}

// outcome collects one run's counts, metrics and failed checks.
type outcome struct {
	attempted, failed uint64
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// check records a failed check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// checkErr records err, if any, as a failed check.
func (o *outcome) checkErr(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders exactly the metrics in want, failing when one was not
// measured (a benchmark bug, not a program fault).
func (o *outcome) report(want []metricDef) (string, error) {
	if o.attempted == 0 {
		return "", fmt.Errorf("no operation attempted")
	}
	r := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	var missing []string
	for _, m := range want {
		v, ok := o.values[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		r.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics not measured: %v", missing)
	}
	b, err := json.Marshal(r)
	return string(b), err
}
