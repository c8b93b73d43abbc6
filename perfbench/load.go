package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"tcoram/internal/server"
	"tcoram/internal/workload"
)

// fixture is a service under test: one server.KV per client goroutine
// (shared or not), the serving-side counters and the teardown.
type fixture struct {
	kvs   []server.KV
	stats func() server.Stats
	close func() error
}

// setupRepeats builds the fixture n times, closing all but the last, and
// returns it with the median set-up time. A set-up shorter than a few tenths
// of a second measures scheduler and disk jitter, so each workload repeats it
// and reports the median.
func setupRepeats(n int, build func(i int) (*fixture, error)) (*fixture, float64, error) {
	var times []float64
	var fx *fixture
	for i := 0; i < n; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, 0, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
			fx = nil
		}
		// Drop the previous fixture's heap before timing the next one, so
		// each set-up (and the peak RSS) sees the same starting state.
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		f, err := build(i)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		fx = f
	}
	return fx, median(times), nil
}

// loadSpec shapes the closed-loop load.
type loadSpec struct {
	scenario   workload.KVScenario
	clients    int
	blocks     uint64 // address space, split into one partition per client
	blockBytes int
	batch      int      // > 1: reads ride ReadBatch of this many addresses
	tenants    []string // per-client tenant tag ("" = untenanted)
}

// client is one closed-loop caller. It owns the address partition
// [lo, lo+n) and remembers, per address, the sequence number of its last
// acknowledged write there (0 = never written). Payloads are a pure function
// of (address, writer, sequence), so every read can be checked exactly
// without keeping the written bytes.
type client struct {
	id      int
	kv      server.KV
	tenant  string
	lo      uint64
	batch   int
	bb      int
	stream  workload.KVStream
	carry   *workload.KVOp
	shadow  []uint64
	seq     uint64
	pending []uint64
	buf     []byte // outgoing write payload
	want    []byte // expected read payload

	// Counters of the current phase.
	ops, failed uint64
	samples     int            // requests answered
	wins        []clientWindow // by completion time
	problems    []string
}

// clientWindow is what one client completed inside one window of a phase.
// Latencies are kept as float32 nanoseconds, 4 bytes a request, so the
// benchmark's own memory grows little with the program's speed.
type clientWindow struct {
	ops uint64
	lat []float32
}

func newClients(spec loadSpec, kvs []server.KV, seed int64) ([]*client, error) {
	part := spec.blocks / uint64(spec.clients)
	cs := make([]*client, spec.clients)
	for i := range cs {
		st, err := workload.NewKVStream(spec.scenario, part, seed*1_000_003+int64(i)*7919, 0)
		if err != nil {
			return nil, err
		}
		tenant := ""
		if i < len(spec.tenants) {
			tenant = spec.tenants[i]
		}
		cs[i] = &client{
			id: i, kv: kvs[i], tenant: tenant, lo: uint64(i) * part,
			batch: spec.batch, bb: spec.blockBytes, stream: st, shadow: make([]uint64, part),
			buf: make([]byte, spec.blockBytes), want: make([]byte, spec.blockBytes),
		}
	}
	return cs, nil
}

// addr is the store address of the client's k-th block.
func (c *client) addr(k uint64) uint64 { return c.lo + k }

// next returns the client's next stream op (or the one a batch left over).
func (c *client) next() workload.KVOp {
	if c.carry != nil {
		op := *c.carry
		c.carry = nil
		return op
	}
	return c.stream.Next()
}

// step issues one request — a single write, a single read, or a batch of
// reads that ends early at a write — checks its results against the shadow
// and returns the logical ops it completed.
func (c *client) step() (ops int, lat time.Duration) {
	op := c.next()
	if op.Write {
		c.seq++
		addr := c.addr(op.Addr)
		fillPayload(c.buf, addr, c.id, c.seq)
		t0 := time.Now()
		err := c.kv.TenantWrite(c.tenant, addr, c.buf)
		lat = time.Since(t0)
		if err != nil {
			c.failed++
			c.note("write %d: %v", addr, err)
			return 0, lat
		}
		c.shadow[op.Addr] = c.seq
		return 1, lat
	}
	if c.batch <= 1 {
		addr := c.addr(op.Addr)
		t0 := time.Now()
		data, err := c.kv.TenantRead(c.tenant, addr)
		lat = time.Since(t0)
		if err != nil {
			c.failed++
			c.note("read %d: %v", addr, err)
			return 0, lat
		}
		c.verify(addr, data)
		return 1, lat
	}
	c.pending = append(c.pending[:0], c.addr(op.Addr))
	for len(c.pending) < c.batch {
		nx := c.stream.Next()
		if nx.Write {
			c.carry = &nx
			break
		}
		c.pending = append(c.pending, c.addr(nx.Addr))
	}
	t0 := time.Now()
	res, err := c.kv.ReadBatch(c.tenant, c.pending)
	lat = time.Since(t0)
	if err != nil {
		c.failed += uint64(len(c.pending))
		c.note("batch of %d: %v", len(c.pending), err)
		return 0, lat
	}
	if len(res) != len(c.pending) {
		c.failed += uint64(len(c.pending))
		c.note("batch of %d answered with %d results", len(c.pending), len(res))
		return 0, lat
	}
	for i, r := range res {
		if r.Err != nil {
			c.failed++
			c.note("batch read %d: %v", c.pending[i], r.Err)
			continue
		}
		c.verify(c.pending[i], r.Data)
		ops++
	}
	return ops, lat
}

// fillPayload writes the full-block record of (addr, writer, seq) into buf:
// the program's own verifiable header (magic, address, writer, sequence)
// followed by bytes derived from the sequence number, so a read check
// covers every byte of the block.
func fillPayload(buf []byte, addr uint64, writer int, seq uint64) {
	server.FillPayload(buf, addr, uint32(writer), seq)
	x := seq*0x9E3779B97F4A7C15 ^ addr
	for i := 24; i < len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(buf[i:], w[:])
	}
}

// expected returns what a read of addr must return: the client's last
// acknowledged write there, or nil when it never wrote it.
func (c *client) expected(addr uint64) []byte {
	seq := c.shadow[addr-c.lo]
	if seq == 0 {
		return nil
	}
	fillPayload(c.want, addr, c.id, seq)
	return c.want
}

func (c *client) verify(addr uint64, got []byte) {
	if err := checkRead(addr, got, c.expected(addr), c.bb); err != nil {
		c.note("%v", err)
	}
}

// note records a failed check (the first few per client verbatim).
func (c *client) note(format string, args ...any) {
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	} else if len(c.problems) == 5 {
		c.problems = append(c.problems, fmt.Sprintf("client %d: further failures omitted", c.id))
	}
}

// windowLen is the length of the equal windows a measured phase is cut
// into (at least minWindows of them). Each end-to-end figure is read from
// the least-disturbed quarter of the windows (bestQuarter): the machine's
// other tenants slow the benchmark in episodes of several seconds, which
// covered from none to seven of ten windows of one run, so a median over
// the windows still moved with them.
const (
	windowLen  = time.Second
	minWindows = 5
)

// windowCount is how many windows a phase of length d is cut into.
func windowCount(d time.Duration) int { return max(minWindows, int(d/windowLen)) }

// bestQuarter is the quartile of xs on the better side: the upper quartile
// when higher is better, the lower one otherwise. Interference from other
// work on the host only ever slows a run down, so this quartile tracks the
// program's own cost while a median tracks how busy the host was.
func bestQuarter(xs []float64, higherBetter bool) float64 {
	q := 0.25
	if higherBetter {
		q = 0.75
	}
	return quantile(append([]float64(nil), xs...), q)
}

// window holds what completed inside one slice of a phase, with the
// quantiles of its request latencies.
type window struct {
	ops           uint64
	cpu           time.Duration
	dur           time.Duration
	p50, p90, p99 time.Duration
}

// phase is the result of one timed closed-loop phase.
type phase struct {
	ops, failed uint64
	samples     int // requests answered
	elapsed     time.Duration
	wins        []window
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// runPhase drives every client in a closed loop for d: each sends its next
// request only once the previous one has been answered. While log is on,
// each request is also recorded there as a client span. Requests are binned
// by completion time into windowCount(d) windows.
func runPhase(cs []*client, d time.Duration, log *spanLog) phase {
	for _, c := range cs {
		c.ops, c.failed = 0, 0
	}
	start := time.Now()
	end := start.Add(d)
	// cpuAt[w] and wallAt[w] are the process CPU time and the phase's
	// elapsed time when window w started, as the sampler saw them.
	windows := windowCount(d)
	cpuAt := make([]time.Duration, windows+1)
	wallAt := make([]time.Duration, windows+1)
	cpuAt[0] = cpuTime()
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for w := 1; w <= windows; w++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(w) / time.Duration(windows))))
			cpuAt[w], wallAt[w] = cpuTime(), time.Since(start)
		}
	}()
	var wg sync.WaitGroup
	for _, c := range cs {
		c.samples, c.wins = 0, make([]clientWindow, windows)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(end) {
				t0 := time.Now()
				n, lat := c.step()
				c.ops += uint64(n)
				t1 := time.Now()
				c.samples++
				// A request that finished after the deadline counts in the
				// totals only.
				if w := int(t1.Sub(start) * time.Duration(windows) / d); w < windows {
					c.wins[w].ops += uint64(n)
					c.wins[w].lat = append(c.wins[w].lat, float32(lat))
				}
				if log != nil && log.on.Load() {
					log.add(span{tenant: c.tenant, start: t0.Sub(log.base), end: t1.Sub(log.base)})
				}
			}
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	sampler.Wait() // its last sample is due at the deadline, which the clients have passed
	for _, c := range cs {
		p.ops += c.ops
		p.failed += c.failed
		p.samples += c.samples
	}
	p.wins = make([]window, windows)
	var lat []float32
	for w := range p.wins {
		win := &p.wins[w]
		win.dur = wallAt[w+1] - wallAt[w]
		win.cpu = cpuAt[w+1] - cpuAt[w]
		lat = lat[:0]
		for _, c := range cs {
			win.ops += c.wins[w].ops
			lat = append(lat, c.wins[w].lat...)
		}
		win.p50 = time.Duration(quantile(lat, 0.50))
		win.p90 = time.Duration(quantile(lat, 0.90))
		win.p99 = time.Duration(quantile(lat, 0.99))
	}
	for _, c := range cs {
		c.wins = nil
	}
	return p
}

// attempts is the number of logical ops a phase attempted.
func (p phase) attempts() uint64 { return p.ops + p.failed }

// reportE2E fills the service end-to-end metrics from a measured phase,
// each the better quartile of its per-window values, and the two
// whole-process figures the traced run reports (p99 latency and CPU per
// op).
func reportE2E(o *outcome, p phase, setup float64) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var tput, p50, p90, p99, cpu []float64
	for _, w := range p.wins {
		if w.ops == 0 || w.cpu == 0 {
			continue
		}
		tput = append(tput, float64(w.ops)/w.dur.Seconds())
		p50 = append(p50, ms(w.p50))
		p90 = append(p90, ms(w.p90))
		p99 = append(p99, ms(w.p99))
		cpu = append(cpu, float64(w.cpu)/1e3/float64(w.ops))
	}
	fmt.Fprintf(os.Stderr, "windows: ops/s %.0f, p50 ms %.4f, p90 ms %.4f\n", tput, p50, p90)
	o.set("setup_s", setup)
	o.set("ops_per_s", bestQuarter(tput, true))
	o.set("lat_p50_ms", bestQuarter(p50, false))
	o.set("lat_p90_ms", bestQuarter(p90, false))
	o.set("client.lat_p99_ms", bestQuarter(p99, false))
	o.set("process.cpu_us_per_op", bestQuarter(cpu, false))
	o.set("rss_peak_mb", rssPeakMiB())
	o.check(p.samples >= 1000, "only %d latency samples in the measured phase (need ≥ 1000 for a p99)", p.samples)
	o.check(len(tput) == len(p.wins), "only %d of %d measured windows completed an op", len(tput), len(p.wins))
}

// clientProblems moves the clients' failed checks into o.
func clientProblems(o *outcome, cs []*client) {
	for _, c := range cs {
		o.problems = append(o.problems, c.problems...)
		c.problems = nil
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMiB is the process's peak resident set size.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of ds by linear interpolation (ds is
// sorted in place).
func quantile[T ~int64 | ~float32 | ~float64](ds []T, q float64) T {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	pos := q * float64(len(ds)-1)
	i := int(pos)
	if i+1 >= len(ds) {
		return ds[len(ds)-1]
	}
	frac := pos - float64(i)
	return ds[i] + T(frac*float64(ds[i+1]-ds[i]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
