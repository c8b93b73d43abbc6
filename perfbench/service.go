package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"tcoram/internal/cluster"
	"tcoram/internal/crypt"
	"tcoram/internal/pathoram"
	"tcoram/internal/server"
	"tcoram/internal/workload"
)

// Workload make-up. Every figure here is public configuration; the seed
// only drives the ORAM's randomness, the key and the clients' op streams.
const (
	blockBytes = 64

	engineBlocks = 1 << 20 // engine-unpaced: 2 shards of 2^19
	engineSetups = 5

	routedBlocks = 1 << 20 // routed-cdsi: 2 nodes × 2 shards of 2^18
	routedBatch  = 8
	// routedClients is two callers, as many as the host has vCPUs: the
	// stack is then CPU-bound. One caller made it latency-bound on wake-ups
	// of idle vCPUs, and the shared host moved that by 34 % (interquartile)
	// within ten runs and by 51 % between two sets of ten.
	routedClients = 2
	routedSetups  = 5

	pacedBlocks  = 1 << 16 // paced-durable: 2 batched shards of 2^15, file store
	pacedBatch   = 4
	pacedCache   = 256 // bucket pages cached per level: well below the tree
	pacedSetups  = 9   // a 2^16-block file store sets up in ≈ 0.1 s: take more samples
	pacedClockHz = 1_000_000
	pacedOLAT    = 15
)

// pacedRates is R: slot periods (rate + OLAT cycles at 1 MHz) of 6, 24, 96
// and 384 ms. The fastest is one this host holds under cadence-1 delta
// checkpoints (sub-millisecond periods slip even when idle), and the ×4
// spacing makes a closed-loop load with at least 40 % real slots always
// pick it, so the learner's choice does not vary from run to run.
var pacedRates = []uint64{5985, 23985, 95985, 383985}

// pacedEpoch is the dynamic schedule: a 0.25 s first epoch, doubling.
const (
	pacedFirstEpoch = 250_000
	pacedGrowth     = 2
)

func keyFor(seed int64) crypt.Key {
	var k crypt.Key
	for i := range k {
		k[i] = byte(seed >> (8 * (i % 8)))
		k[i] ^= byte(i * 37)
	}
	return k
}

// warmup is the untimed closed-loop phase before measuring: it fills the
// stash to its steady state and lets lazily built state settle.
func warmup(rc runConfig) time.Duration {
	return time.Duration(min(1.0, rc.seconds/10) * float64(time.Second))
}

// measured runs the untimed warm-up and the measured phase, or for a traced
// run an untraced and a traced phase of half the length each. It returns the
// phase the end-to-end figures come from, and (traced runs) the traced
// phase with the store-stats delta across it.
func measured(rc runConfig, o *outcome, cs []*client, logs *traceLogs, stats func() server.Stats) (untraced, traced phase, before, after server.Stats) {
	w := runPhase(cs, warmup(rc), nil)
	o.attempted += w.attempts()
	o.failed += w.failed
	d := time.Duration(rc.seconds * float64(time.Second))
	if !rc.trace {
		untraced = runPhase(cs, d, nil)
		o.attempted += untraced.attempts()
		o.failed += untraced.failed
		return untraced, traced, before, after
	}
	untraced = runPhase(cs, d/2, nil)
	before = stats()
	logs.setOn(true)
	traced = runPhase(cs, d/2, logs.client)
	logs.setOn(false)
	after = stats()
	for _, p := range []phase{untraced, traced} {
		o.attempted += p.attempts()
		o.failed += p.failed
	}
	o.set("trace.overhead_frac", 1-traced.opsPerSec()/untraced.opsPerSec())
	return untraced, traced, before, after
}

// traceLogs are the span logs of one traced run, one per layer boundary.
type traceLogs struct {
	client, router, store *spanLog
}

// newTraceLogs returns the logs with one shared time base, so spans from
// different layers compare directly.
func newTraceLogs() *traceLogs {
	l := &traceLogs{client: newSpanLog(), router: newSpanLog(), store: newSpanLog()}
	l.router.base, l.store.base = l.client.base, l.client.base
	return l
}

func (l *traceLogs) setOn(on bool) {
	for _, s := range []*spanLog{l.client, l.router, l.store} {
		s.on.Store(on)
	}
}

// runEngine is engine-unpaced: an in-process unpaced store of 2^20 blocks
// on 2 flat shards, driven by one caller with uniform single-block ops,
// half of them writes. The ORAM engine does nearly all the work. One caller
// keeps a request's latency one ORAM access plus the hand-off: with two,
// requests queued behind each other's accesses or crossed vCPUs in a way
// that changed from process to process (see README.md).
func runEngine(rc runConfig, o *outcome) error {
	cfg := server.Config{Shards: 2, Blocks: engineBlocks, BlockBytes: blockBytes, Unpaced: true, Seed: rc.seed, Key: keyFor(rc.seed)}
	logs := newTraceLogs()
	fx, setup, err := setupRepeats(engineSetups, func(int) (*fixture, error) {
		st, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		var kv server.KV = st
		if rc.trace {
			kv = &tracedService{inner: st, log: logs.store, shardOf: st.ShardOf}
		}
		return &fixture{kvs: []server.KV{kv}, stats: st.Stats, close: st.Close}, nil
	})
	if err != nil {
		return err
	}
	spec := loadSpec{scenario: workload.KVUniform, clients: 1, blocks: engineBlocks, blockBytes: blockBytes, batch: 1, tenants: []string{"c0"}}
	cs, err := newClients(spec, fx.kvs, rc.seed)
	if err != nil {
		fx.close()
		return err
	}
	untraced, traced, before, after := measured(rc, o, cs, logs, fx.stats)
	clientProblems(o, cs)
	reportE2E(o, untraced, setup)
	if err := fx.close(); err != nil {
		return err
	}
	if !rc.trace {
		return nil
	}
	g := pathoram.ShardGeometry(engineBlocks, cfg.Shards, 3, blockBytes)
	accessUS, _, err := layerProbes(o, g, engineBlocks/2, 4096, rc.seed)
	if err != nil {
		return err
	}
	serverLayers(o, before, after, traced.ops, pacedClockHz)
	reqs := correlate(logs.client.take(), nil, logs.store.take())
	waterfall(o, "engine-unpaced", reqs, accessUS, 0)
	zeroUnless(o, "cluster.router_batch_us", "cluster.router_self_us", "experiments.pool_busy_frac")
	return nil
}

// runRouted is routed-cdsi: two callers → loopback TCP → routing proxy
// (server.Serve over cluster.Router) → 2 nodes, each server.Serve over an
// unpaced in-memory store. The cdsi stream (zipf s = 1.3, 2 % writes) goes
// out as batch_read of 8 plus single writes.
func runRouted(rc runConfig, o *outcome) error {
	logs := newTraceLogs()
	var stores []*server.Store
	fx, setup, err := setupRepeats(routedSetups, func(int) (*fixture, error) {
		return buildCluster(rc, logs, &stores)
	})
	if err != nil {
		return err
	}
	spec := loadSpec{scenario: workload.KVCDSI, clients: routedClients, blocks: routedBlocks, blockBytes: blockBytes, batch: routedBatch, tenants: []string{"c0", "c1"}}
	cs, err := newClients(spec, fx.kvs, rc.seed)
	if err != nil {
		fx.close()
		return err
	}
	untraced, traced, before, after := measured(rc, o, cs, logs, fx.stats)
	clientProblems(o, cs)
	reportE2E(o, untraced, setup)
	if err := fx.close(); err != nil {
		return err
	}
	if !rc.trace {
		return nil
	}
	g := pathoram.ShardGeometry(routedBlocks/2, 2, 3, blockBytes)
	accessUS, wireSelf, err := layerProbes(o, g, routedBlocks/4, 4096, rc.seed)
	if err != nil {
		return err
	}
	serverLayers(o, before, after, traced.ops, pacedClockHz)
	reqs := correlate(logs.client.take(), logs.router.take(), logs.store.take())
	waterfall(o, "routed-cdsi", reqs, accessUS, wireSelf)
	zeroUnless(o, "experiments.pool_busy_frac")
	return nil
}

// buildCluster starts two node daemons, the routing proxy and one client
// connection per caller, all on loopback, and returns once the proxy has
// answered a ping on each connection.
func buildCluster(rc runConfig, logs *traceLogs, stores *[]*server.Store) (*fixture, error) {
	var closers []func() error
	closeAll := func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	serve := func(svc server.Service) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		done := make(chan error, 1)
		go func() { done <- server.Serve(l, svc) }()
		closers = append(closers, func() error {
			l.Close()
			if err := <-done; err != nil && !server.IsClosedErr(err) {
				return err
			}
			return nil
		})
		return l.Addr().String(), nil
	}
	fail := func(err error) (*fixture, error) {
		closeAll()
		return nil, err
	}
	*stores = (*stores)[:0]
	var nodes []string
	for i := 0; i < 2; i++ {
		st, err := server.New(server.Config{
			Shards: 2, Blocks: routedBlocks / 2, BlockBytes: blockBytes, Unpaced: true,
			Seed: rc.seed*31 + int64(i), Key: keyFor(rc.seed),
		})
		if err != nil {
			return fail(err)
		}
		closers = append(closers, st.Close)
		*stores = append(*stores, st)
		var svc server.Service = st
		if rc.trace {
			svc = &tracedService{inner: st, log: logs.store, shardOf: st.ShardOf}
		}
		addr, err := serve(svc)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, addr)
	}
	r, err := cluster.NewRouter(cluster.Config{Nodes: nodes})
	if err != nil {
		return fail(err)
	}
	closers = append(closers, r.Close)
	var proxy server.Service = r
	if rc.trace {
		proxy = &tracedService{inner: r, log: logs.router}
	}
	addr, err := serve(proxy)
	if err != nil {
		return fail(err)
	}
	var kvs []server.KV
	for i := 0; i < routedClients; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, c.Close)
		if err := c.Ping(); err != nil {
			return fail(err)
		}
		kvs = append(kvs, c)
	}
	nodeStores := append([]*server.Store(nil), *stores...)
	stats := func() server.Stats {
		var agg server.Stats
		for _, st := range nodeStores {
			agg.Shards = append(agg.Shards, st.Stats().Shards...)
		}
		return agg
	}
	return &fixture{kvs: kvs, stats: stats, close: closeAll}, nil
}

// pacedConfig is paced-durable's store: 2 paced shards on the batched
// backend (k = 4), file-backed with delta checkpoints after every real slot,
// and the dynamic learner choosing among the four rates of pacedRates.
func pacedConfig(rc runConfig, dir string) server.Config {
	return server.Config{
		Shards: 2, Blocks: pacedBlocks, BlockBytes: blockBytes,
		Backend: server.BackendBatched, BatchK: pacedBatch,
		Store: server.StoreFile, DataDir: dir, CheckpointEvery: 1, CheckpointMode: server.CheckpointDelta, DeltaCompactAfter: 1 << 20,
		CacheBuckets: pacedCache, MMap: true,
		ClockHz: pacedClockHz, ORAMLatency: pacedOLAT,
		Rates: pacedRates, EpochFirstLen: pacedFirstEpoch, EpochGrowth: pacedGrowth,
		Seed: rc.seed, Key: keyFor(rc.seed),
	}
}

// runPaced is paced-durable: the paper's mechanism on live traffic. Two
// tenants submit cdsi batches of 4 to an in-process paced, durable store.
// After the load it checks the leakage account and the slot grid, closes
// the store, recovers it from its data dir and reads back every write.
func runPaced(rc runConfig, o *outcome) error {
	logs := newTraceLogs()
	var st *server.Store
	var dir string
	var born time.Time // when the last set-up's New returned: its shards' clocks start then
	fx, setup, err := setupRepeats(pacedSetups, func(i int) (*fixture, error) {
		d := filepath.Join(rc.dataDir, fmt.Sprintf("setup-%d", i))
		s, err := server.New(pacedConfig(rc, d))
		if err != nil {
			return nil, err
		}
		born = time.Now()
		st, dir = s, d
		var kv server.KV = s
		if rc.trace {
			kv = &tracedService{inner: s, log: logs.store, shardOf: s.ShardOf}
		}
		return &fixture{kvs: []server.KV{kv, kv}, stats: s.Stats, close: func() error {
			err := s.Close()
			os.RemoveAll(d)
			return err
		}}, nil
	})
	if err != nil {
		return err
	}
	tenants := []string{"alice", "bob"}
	spec := loadSpec{scenario: workload.KVCDSI, clients: 2, blocks: pacedBlocks, blockBytes: blockBytes, batch: pacedBatch, tenants: tenants}
	cs, err := newClients(spec, fx.kvs, rc.seed)
	if err != nil {
		fx.close()
		return err
	}
	untraced, traced, before, after := measured(rc, o, cs, logs, fx.stats)
	clientProblems(o, cs)
	reportE2E(o, untraced, setup)

	// Idle, so the shards catch up with their grids, then audit the
	// schedule and the leakage account against the benchmark's own
	// arithmetic.
	time.Sleep(100 * time.Millisecond)
	ls := leakageSpec{rates: pacedRates, olat: pacedOLAT, firstLen: pacedFirstEpoch, growth: pacedGrowth, tenantsWithTraffic: tenants}
	var gridErrs []error
	var final server.Stats
	for attempt := 0; attempt < 5; attempt++ {
		t0 := time.Now()
		final = st.Stats()
		t1 := time.Now()
		ls.untilLo = cycles(t0.Sub(born))
		ls.untilHi = cycles(t1.Sub(born) + time.Millisecond)
		if gridErrs = checkGrid(final, ls); len(gridErrs) == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, e := range gridErrs {
		o.checkErr(e)
	}
	for _, sh := range final.Shards {
		fmt.Fprintf(os.Stderr, "paced-durable: shard %d: %d real + %d dummy slots, %d overdue, %d checkpoints, rate history %v\n",
			sh.Shard, sh.RealAccesses, sh.DummyAccesses, sh.OverdueSlots, sh.Checkpoints, sh.RateChanges)
	}
	for _, e := range checkLeakage(final, ls) {
		o.checkErr(e)
	}
	// Close the store, so only what its data dir holds survives.
	if err := st.Close(); err != nil {
		return err
	}
	n, failed, err := recoverAndReadBack(rc, dir, cs, o)
	os.RemoveAll(dir)
	if err != nil {
		return err
	}
	o.attempted += n
	o.failed += failed
	if !rc.trace {
		return nil
	}
	g := pathoram.ShardGeometry(pacedBlocks, 2, 3, blockBytes)
	sealBytes := 4096
	if d := delta(after, before, func(s server.ShardStats) uint64 { return s.Checkpoints }); d > 0 {
		sealBytes = int(delta(after, before, func(s server.ShardStats) uint64 { return s.CheckpointBytes }) / d)
	}
	if _, _, err := layerProbes(o, g, pacedBlocks/2, sealBytes, rc.seed); err != nil {
		return err
	}
	serverLayers(o, before, after, traced.ops, pacedClockHz)
	var storeSum time.Duration
	spans := logs.store.take()
	for _, s := range spans {
		storeSum += s.dur()
	}
	o.set("server.store_op_us", float64(storeSum)/1e3/float64(max(1, len(spans))))
	o.set("server.shard_self_us", o.values["server.store_op_us"]-o.values["pathoram.batch_slot_us"])
	zeroUnless(o, "cluster.router_batch_us", "cluster.router_self_us", "experiments.pool_busy_frac", "trace.unattributed_us")
	return nil
}

// recoverAndReadBack reopens the store from dir — a restart after the
// close — and reads back every address each client wrote, comparing it
// with the client's shadow of the acknowledged write.
func recoverAndReadBack(rc runConfig, dir string, cs []*client, o *outcome) (attempted, failed uint64, err error) {
	st, err := server.New(pacedConfig(rc, dir))
	if err != nil {
		return 0, 0, fmt.Errorf("recovering %s: %w", dir, err)
	}
	defer st.Close()
	for _, sh := range st.Stats().Shards {
		o.check(sh.Recovery == "recovered", "shard %d booted %q from a data dir with a checkpoint, want recovered", sh.Shard, sh.Recovery)
	}
	for _, c := range cs {
		var addrs []uint64
		for i, seq := range c.shadow {
			if seq != 0 {
				addrs = append(addrs, c.addr(uint64(i)))
			}
		}
		for len(addrs) > 0 {
			n := min(pacedBatch, len(addrs))
			batch := addrs[:n]
			addrs = addrs[n:]
			attempted += uint64(n)
			res, err := st.ReadBatch(c.tenant, batch)
			if err != nil {
				failed += uint64(n)
				o.checkErr(fmt.Errorf("read-back after recovery: %v", err))
				continue
			}
			for i, r := range res {
				if r.Err != nil {
					failed++
					o.checkErr(fmt.Errorf("read-back %d after recovery: %v", batch[i], r.Err))
					continue
				}
				if err := checkRead(batch[i], r.Data, c.expected(batch[i]), blockBytes); err != nil {
					o.checkErr(fmt.Errorf("after recovery: %v", err))
				}
			}
		}
	}
	return attempted, failed, nil
}

func cycles(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d.Seconds() * pacedClockHz)
}

// delta sums f over every shard of after minus the same over before.
func delta(after, before server.Stats, f func(server.ShardStats) uint64) uint64 {
	var a, b uint64
	for _, s := range after.Shards {
		a += f(s)
	}
	for _, s := range before.Shards {
		b += f(s)
	}
	return a - b
}

// serverLayers fills the per-layer metrics read from the store counters
// across the traced phase, in which ops logical ops completed.
func serverLayers(o *outcome, before, after server.Stats, ops uint64, clockHz float64) {
	d := func(f func(server.ShardStats) uint64) float64 { return float64(delta(after, before, f)) }
	per := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	reals := d(func(s server.ShardStats) uint64 { return s.RealAccesses })
	dummies := d(func(s server.ShardStats) uint64 { return s.DummyAccesses })
	slots := reals + dummies
	fops := float64(ops)
	o.set("server.ops_per_real_slot", per(fops, reals))
	o.set("server.coalesced_per_op", per(d(func(s server.ShardStats) uint64 { return s.Coalesced }), fops))
	o.set("core.dummy_frac", per(dummies, slots))
	o.set("core.overdue_frac", per(d(func(s server.ShardStats) uint64 { return s.OverdueSlots }), slots))
	var lag uint64
	var peak int
	for _, s := range after.Shards {
		lag = max(lag, s.MaxLagCycles)
		peak = max(peak, s.StashPeak)
	}
	o.set("core.max_lag_ms", float64(lag)/clockHz*1e3)
	o.set("core.rate_changes", float64(after.Transitions()))
	o.set("pathoram.stash_peak", float64(peak))
	cps := d(func(s server.ShardStats) uint64 { return s.Checkpoints })
	o.set("persist.checkpoint_us", per(d(func(s server.ShardStats) uint64 { return s.CheckpointNS })/1e3, cps))
	o.set("persist.checkpoint_kib", per(d(func(s server.ShardStats) uint64 { return s.CheckpointBytes })/1024, cps))
	o.set("persist.checkpoints_per_op", per(cps, fops))
	hits := d(func(s server.ShardStats) uint64 { return s.CacheHits })
	misses := d(func(s server.ShardStats) uint64 { return s.CacheMisses })
	o.set("filestore.cache_hit_frac", per(hits, hits+misses))
	o.set("filestore.file_ios_per_op", per(d(func(s server.ShardStats) uint64 { return s.FileReads + s.FileWrites }), fops))
}

// zeroUnless sets each named metric to 0 unless the run measured it: the
// layer is not on this workload's path.
func zeroUnless(o *outcome, names ...string) {
	for _, n := range names {
		if _, ok := o.values[n]; !ok {
			o.set(n, 0)
		}
	}
}
