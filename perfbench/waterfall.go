package main

import (
	"fmt"
	"time"
)

// waterfall prints the mean time of one request split along its blocking
// steps and records the layer spans it is built from. Rows measured in situ
// are span self times; the ORAM access and the second hop come from the
// probes (pathoram.access_us per address on the busiest shard, and
// wire.self_us). The unattributed remainder is the client's time that
// neither the spans nor the probes account for.
func waterfall(o *outcome, name string, reqs []request, accessUS, wireSelfUS float64) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var n, nodeCalls int
	var client, router, routerSelf, node, nodeAll, oram float64
	var nodeSelfAll float64
	for _, r := range reqs {
		slow, ok := r.slowestNode()
		if !ok {
			continue // a request whose spans fell outside the traced window
		}
		n++
		client += us(r.client)
		router += us(r.router)
		if r.router > 0 {
			routerSelf += us(r.router - slow.dur())
		}
		node += us(slow.dur())
		oram += float64(slow.busiest) * accessUS
		for _, s := range r.nodes {
			nodeCalls++
			nodeAll += us(s.dur())
			nodeSelfAll += us(s.dur()) - float64(s.busiest)*accessUS
		}
	}
	if n == 0 {
		o.check(false, "%s: traced phase recorded no complete request", name)
		for _, m := range []string{"server.store_op_us", "server.shard_self_us", "cluster.router_batch_us", "cluster.router_self_us", "trace.unattributed_us"} {
			o.set(m, 0)
		}
		return
	}
	f := float64(n)
	client, router, routerSelf, node, oram = client/f, router/f, routerSelf/f, node/f, oram/f
	o.set("server.store_op_us", nodeAll/float64(nodeCalls))
	o.set("server.shard_self_us", nodeSelfAll/float64(nodeCalls))

	type row struct {
		label string
		us    float64
		how   string
	}
	rows := []row{
		{"first hop", 0, "in-process: no wire"},
		{"router", 0, "no router"},
		{"second hop", 0, "in-process: no wire"},
	}
	if router > 0 {
		o.set("cluster.router_batch_us", router)
		o.set("cluster.router_self_us", routerSelf)
		rows = []row{
			{"first hop", wireSelfUS, "client ↔ proxy codec, syscalls, loopback (probe: wire.self_us)"},
			{"router", routerSelf - wireSelfUS, "router span − slowest node span − second hop"},
			{"second hop", wireSelfUS, "proxy ↔ node (probe: wire.self_us)"},
		}
	}
	rows = append(rows,
		row{"node store", node - oram, "slowest store span − ORAM estimate: queue handoff, shard loop, ack"},
		row{"ORAM access", oram, fmt.Sprintf("addresses on the busiest shard × pathoram.access_us (%.1f µs)", accessUS)})
	sum := 0.0
	for _, r := range rows {
		sum += r.us
	}
	rest := client - sum
	o.set("trace.unattributed_us", rest)

	fmt.Printf("waterfall %s: mean per request over %d traced requests\n", name, n)
	fmt.Printf("  %-13s %10.1f µs  %s\n", "client", client, "request latency seen by the caller")
	for _, r := range rows {
		fmt.Printf("  %-13s %10.1f µs  %s\n", r.label, r.us, r.how)
	}
	fmt.Printf("  %-13s %10.1f µs  %s\n", "unattributed", rest, "client − the rows above")
}
