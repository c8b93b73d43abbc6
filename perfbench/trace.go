package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tcoram/internal/pathoram"
	"tcoram/internal/server"
)

// span is one timed call into a layer, recorded by a decorator the
// benchmark wraps around the layer's public surface. Spans of one request
// share its tenant tag: each client tags its requests with its own tenant
// and has one request in flight, so (tenant, time containment) identifies
// the request a span served.
type span struct {
	tenant     string
	start, end time.Duration // since the log's base
	addrs      int           // addresses the call carried
	busiest    int           // addresses on the busiest shard of the callee
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the recorded spans and clears the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// tracedService is a server.Service decorator that records a span per data
// call while its log is on; ServiceStats passes through untimed. shardOf
// maps an address the decorated service receives to the shard serving it
// (nil when the callee is not a store).
type tracedService struct {
	inner   server.Service
	log     *spanLog
	shardOf func(addr uint64) int
}

func (t *tracedService) record(tenant string, t0 time.Time, addrs []uint64) {
	s := span{tenant: tenant, start: t0.Sub(t.log.base), end: time.Since(t.log.base), addrs: len(addrs)}
	if t.shardOf != nil {
		var per [64]int
		for _, a := range addrs {
			sh := t.shardOf(a) % len(per)
			per[sh]++
			if per[sh] > s.busiest {
				s.busiest = per[sh]
			}
		}
	}
	t.log.add(s)
}

func (t *tracedService) Read(addr uint64) ([]byte, error) { return t.TenantRead("", addr) }

func (t *tracedService) Write(addr uint64, data []byte) error { return t.TenantWrite("", addr, data) }

func (t *tracedService) TenantRead(tenant string, addr uint64) ([]byte, error) {
	if !t.log.on.Load() {
		return t.inner.TenantRead(tenant, addr)
	}
	t0 := time.Now()
	d, err := t.inner.TenantRead(tenant, addr)
	t.record(tenant, t0, []uint64{addr})
	return d, err
}

func (t *tracedService) TenantWrite(tenant string, addr uint64, data []byte) error {
	if !t.log.on.Load() {
		return t.inner.TenantWrite(tenant, addr, data)
	}
	t0 := time.Now()
	err := t.inner.TenantWrite(tenant, addr, data)
	t.record(tenant, t0, []uint64{addr})
	return err
}

func (t *tracedService) ReadBatch(tenant string, addrs []uint64) ([]server.BatchResult, error) {
	if !t.log.on.Load() {
		return t.inner.ReadBatch(tenant, addrs)
	}
	t0 := time.Now()
	r, err := t.inner.ReadBatch(tenant, addrs)
	t.record(tenant, t0, addrs)
	return r, err
}

func (t *tracedService) ServiceStats() (server.Stats, error) { return t.inner.ServiceStats() }

// countingStore is a pathoram.BucketStore decorator counting the bytes an
// ORAM moves to and from untrusted storage.
type countingStore struct {
	pathoram.BucketStore
	read, written uint64
}

func (c *countingStore) ReadBucket(idx uint64) []byte {
	b := c.BucketStore.ReadBucket(idx)
	c.read += uint64(len(b))
	return b
}

func (c *countingStore) WriteBucket(idx uint64, ct []byte) {
	c.written += uint64(len(ct))
	c.BucketStore.WriteBucket(idx, ct)
}

func (c *countingStore) BucketSlice(idx uint64) []byte {
	b := c.BucketStore.BucketSlice(idx)
	c.written += uint64(len(b))
	return b
}

// request is one client request with the spans it caused: the client's own
// timing, the router's span (zero when no router) and the node/store spans
// inside it.
type request struct {
	client time.Duration
	router time.Duration
	nodes  []span
}

// slowestNode returns the longest store span of the request.
func (r request) slowestNode() (span, bool) {
	var best span
	ok := false
	for _, s := range r.nodes {
		if !ok || s.dur() > best.dur() {
			best, ok = s, true
		}
	}
	return best, ok
}

// correlate groups spans into requests. clientSpans are the clients' own
// request timings; routerSpans (may be nil) and nodeSpans come from the
// decorators. Every span is assigned to the one request of the same tenant
// whose interval contains it.
func correlate(clientSpans, routerSpans, nodeSpans []span) []request {
	byTenant := map[string][]int{}
	reqs := make([]request, len(clientSpans))
	for i, c := range clientSpans {
		reqs[i].client = c.dur()
		byTenant[c.tenant] = append(byTenant[c.tenant], i)
	}
	find := func(s span) int {
		idx := byTenant[s.tenant]
		// Binary search for the last client span starting at or before s.
		lo, hi := 0, len(idx)
		for lo < hi {
			m := (lo + hi) / 2
			if clientSpans[idx[m]].start <= s.start {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == 0 {
			return -1
		}
		i := idx[lo-1]
		if s.end > clientSpans[i].end {
			return -1
		}
		return i
	}
	for _, s := range routerSpans {
		if i := find(s); i >= 0 {
			reqs[i].router += s.dur()
		}
	}
	for _, s := range nodeSpans {
		if i := find(s); i >= 0 {
			reqs[i].nodes = append(reqs[i].nodes, s)
		}
	}
	return reqs
}
