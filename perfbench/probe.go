package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"tcoram/internal/crypt"
	"tcoram/internal/experiments"
	"tcoram/internal/pathoram"
	"tcoram/internal/server"
	"tcoram/internal/sim"
	"tcoram/internal/workload"
)

// Probes are standalone calls into one layer at a workload's geometry, made
// by the traced run after the workload's own traced phase. They give the
// per-layer numbers the serving stack hides inside its goroutines (one ORAM
// access, one AES-CTR pass, one wire hop, one simulation).

const probeWindow = 400 * time.Millisecond

// oramProbe times ORAM.Update on a flat ORAM of geometry g whose bucket
// store counts the bytes each access moves.
func oramProbe(o *outcome, g pathoram.Geometry, seed int64) error {
	bs, err := pathoram.NewByteStorage(g)
	if err != nil {
		return err
	}
	cs := &countingStore{BucketStore: bs}
	rng := rand.New(rand.NewSource(seed))
	or, err := pathoram.NewORAMOn(g, crypt.Key{1}, rng, cs)
	if err != nil {
		return err
	}
	blocks := or.Blocks()
	touch := func(d []byte) { d[0]++ }
	for i := 0; i < 200; i++ { // warm the stash and the caches
		if err := or.Update(uint64(rng.Int63())%blocks, touch); err != nil {
			return err
		}
	}
	cs.read, cs.written = 0, 0
	n := 0
	t0 := time.Now()
	for time.Since(t0) < probeWindow || n < 500 {
		if err := or.Update(uint64(rng.Int63())%blocks, touch); err != nil {
			return err
		}
		n++
	}
	el := time.Since(t0)
	_, peak := or.StashOccupancy()
	o.set("pathoram.access_us", float64(el)/1e3/float64(n))
	o.set("pathoram.bytes_per_access", float64(cs.read+cs.written)/float64(n))
	o.set("pathoram.stash_peak", float64(peak))
	pathBytes := 2 * g.Levels * g.BucketCipherBytes()
	floor := float64(g.BlockBytes) * float64(g.Levels-1)
	fmt.Printf("pathoram: %.0f B per access at L=%d Z=%d B=%d; Path ORAM moves 2·(L+1)·bucket = %d B; the Ω(log n) floor is lg n·B ≈ %.0f B\n",
		float64(cs.read+cs.written)/float64(n), g.Levels-1, g.Z, g.BlockBytes, pathBytes, floor)
	return nil
}

// batchedProbe times one Batched.AccessBatch of k random blocks on a
// batched stack holding perShard blocks.
func batchedProbe(o *outcome, perShard uint64, blockBytes, k int, seed int64) error {
	cfg := pathoram.BatchedConfig{
		RecursiveConfig: pathoram.RecursiveConfig{DataBlocks: perShard, DataBlockBytes: blockBytes, PosMapBlockBytes: 32, Z: 3},
		BatchK:          k,
		EvictEvery:      4,
	}
	rng := rand.New(rand.NewSource(seed))
	b, err := pathoram.NewBatched(cfg, crypt.Key{2}, rng)
	if err != nil {
		return err
	}
	ops := make([]pathoram.BatchOp, k)
	touch := func(d []byte) { d[0]++ }
	slot := func() error {
		for i := range ops {
			ops[i] = pathoram.BatchOp{Addr: uint64(rng.Int63()) % b.Blocks(), Fn: touch}
		}
		return b.AccessBatch(ops)
	}
	for i := 0; i < 50; i++ {
		if err := slot(); err != nil {
			return err
		}
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < probeWindow || n < 200 {
		if err := slot(); err != nil {
			return err
		}
		n++
	}
	o.set("pathoram.batch_slot_us", float64(time.Since(t0))/1e3/float64(n))
	return nil
}

// cryptProbe times Cipher.EncryptTo over bucket-sized plaintexts and
// crypt.Seal of a sealBytes payload.
func cryptProbe(o *outcome, bucketPlain, sealBytes int) error {
	c := crypt.NewCipher(crypt.Key{3}, nil)
	pt := make([]byte, bucketPlain)
	dst := make([]byte, crypt.NonceSize+bucketPlain)
	n := 0
	t0 := time.Now()
	for time.Since(t0) < probeWindow || n < 1000 {
		if err := c.EncryptTo(dst, pt); err != nil {
			return err
		}
		n++
	}
	o.set("crypt.ctr_ns_per_kib", float64(time.Since(t0))/float64(n)/float64(bucketPlain)*1024)
	payload := make([]byte, sealBytes)
	n = 0
	t0 = time.Now()
	for time.Since(t0) < probeWindow || n < 100 {
		if _, err := crypt.Seal(c, payload); err != nil {
			return err
		}
		n++
	}
	o.set("crypt.seal_us", float64(time.Since(t0))/1e3/float64(n))
	return nil
}

// wireProbe measures one hop: a client against one daemon serving a small
// unpaced store behind a store decorator. wire.self_us is the batch RTT
// minus the store's own span — the codec, syscalls and scheduling of a hop.
func wireProbe(o *outcome, seed int64) (selfUS float64, err error) {
	st, err := server.New(server.Config{Shards: 1, Blocks: 1 << 14, Unpaced: true, Seed: seed})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	log := newSpanLog()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- server.Serve(l, &tracedService{inner: st, log: log, shardOf: st.ShardOf}) }()
	defer func() {
		l.Close()
		<-served
	}()
	cl, err := server.Dial(l.Addr().String())
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint64, 8)
	timeOps := func(fn func() error) (float64, error) {
		for i := 0; i < 100; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		log.take()
		log.on.Store(true)
		defer log.on.Store(false)
		n := 0
		t0 := time.Now()
		for time.Since(t0) < probeWindow || n < 500 {
			if err := fn(); err != nil {
				return 0, err
			}
			n++
		}
		return float64(time.Since(t0)) / 1e3 / float64(n), nil
	}
	rtt, err := timeOps(func() error {
		_, err := cl.Read(uint64(rng.Int63()) % (1 << 14))
		return err
	})
	if err != nil {
		return 0, err
	}
	batchRTT, err := timeOps(func() error {
		for i := range addrs {
			addrs[i] = uint64(rng.Int63()) % (1 << 14)
		}
		_, err := cl.ReadBatch("", addrs)
		return err
	})
	if err != nil {
		return 0, err
	}
	var storeSum time.Duration
	spans := log.take()
	for _, s := range spans {
		storeSum += s.dur()
	}
	storeUS := float64(storeSum) / 1e3 / float64(max(1, len(spans)))
	o.set("wire.rtt_us", rtt)
	o.set("wire.batch_rtt_us", batchRTT)
	o.set("wire.self_us", batchRTT-storeUS)
	return batchRTT - storeUS, nil
}

// quickConfig is experiments.Quick's sim.Config for one scheme.
func quickConfig(scheme sim.Scheme) sim.Config {
	s := experiments.Quick()
	return sim.Config{
		Scheme:        scheme,
		Instructions:  s.Instructions,
		WarmupInstrs:  s.Warmup,
		WindowInstrs:  s.WindowInstrs,
		EpochFirstLen: s.EpochFirstLen,
	}
}

// headlineSchemes mirrors the §9.3 comparison's scheme list (base_dram
// first, then base_oram, dynamic_R4_E4, static_300/500/1300), built from the
// public sim.Config fields.
func headlineSchemes() []sim.Config {
	dyn := quickConfig(sim.DynamicORAM)
	dyn.NumRates, dyn.EpochGrowth = 4, 4
	static := func(rate uint64) sim.Config {
		c := quickConfig(sim.StaticORAM)
		c.StaticRate = rate
		return c
	}
	return []sim.Config{quickConfig(sim.BaseDRAM), quickConfig(sim.BaseORAM), dyn, static(300), static(500), static(1300)}
}

// simProbe runs one Quick sim.Run of the suite's first program on base_dram
// and on dynamic_R4_E4, serially.
func simProbe(o *outcome) error {
	spec := workload.Suite()[0]
	schemes := headlineSchemes()
	var instrs uint64
	var took [2]time.Duration
	var res [2]sim.Result
	for i, cfg := range []sim.Config{schemes[0], schemes[2]} {
		t0 := time.Now()
		r, err := sim.Run(spec, cfg)
		if err != nil {
			return err
		}
		took[i] = time.Since(t0)
		res[i] = r
		instrs += cfg.Instructions + cfg.WarmupInstrs
	}
	o.set("sim.run_s.base_dram", took[0].Seconds())
	o.set("sim.run_s.dynamic", took[1].Seconds())
	o.set("sim.minstr_per_s.serial", float64(instrs)/1e6/(took[0]+took[1]).Seconds())
	o.set("sim.dummy_frac", res[1].Mem.DummyFraction())
	if _, ok := o.values["sim_perf_x"]; !ok {
		o.set("sim_perf_x", res[1].PerfOverhead(res[0]))
		o.set("sim_minstr_per_s", float64(instrs)/1e6/(took[0]+took[1]).Seconds())
	}
	return nil
}

// layerProbes runs every probe at a workload's geometry: g is one shard's
// data tree, perShard its block count, sealBytes the payload crypt.Seal is
// timed on. It returns the probes' ORAM access time and wire self time for
// the waterfall.
func layerProbes(o *outcome, g pathoram.Geometry, perShard uint64, sealBytes int, seed int64) (accessUS, wireSelfUS float64, err error) {
	if err = oramProbe(o, g, seed); err != nil {
		return 0, 0, fmt.Errorf("pathoram probe: %w", err)
	}
	if err = batchedProbe(o, perShard, g.BlockBytes, 4, seed); err != nil {
		return 0, 0, fmt.Errorf("batched probe: %w", err)
	}
	if err = cryptProbe(o, g.BucketPlainBytes(), sealBytes); err != nil {
		return 0, 0, fmt.Errorf("crypt probe: %w", err)
	}
	if wireSelfUS, err = wireProbe(o, seed); err != nil {
		return 0, 0, fmt.Errorf("wire probe: %w", err)
	}
	if err = simProbe(o); err != nil {
		return 0, 0, fmt.Errorf("sim probe: %w", err)
	}
	return o.values["pathoram.access_us"], wireSelfUS, nil
}
