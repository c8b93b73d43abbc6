package main

import (
	"fmt"
	"math"
	"math/bits"

	"tcoram/internal/adversary"
	"tcoram/internal/core"
	"tcoram/internal/experiments"
	"tcoram/internal/server"
)

// The checks below compare the program's outputs against values the
// benchmark computes itself (the clients' shadows, lg|R| arithmetic, the
// slot grid a rate history implies) or against properties the paper's method
// must have. Each has a test in check_test.go that feeds it a wrong output.

// checkRead accepts a read of addr when it equals the client's last write
// there, or is all zeroes when the client never wrote it.
func checkRead(addr uint64, got, want []byte, blockBytes int) error {
	if len(got) != blockBytes {
		return fmt.Errorf("read %d: %d bytes, want %d", addr, len(got), blockBytes)
	}
	if want == nil {
		for _, b := range got {
			if b != 0 {
				return fmt.Errorf("read %d: never written but not zero", addr)
			}
		}
		return nil
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("read %d: differs from the last acknowledged write at byte %d", addr, i)
		}
	}
	return nil
}

// lgRates is lg|R|, the bits one epoch transition reveals.
func lgRates(numRates int) float64 { return math.Log2(float64(numRates)) }

// epochsBy counts the epoch boundaries of a geometric schedule (first epoch
// firstLen cycles, each next one growth times longer) at or before cycle
// until: the most transitions a shard can have made by then.
func epochsBy(firstLen, growth, until uint64) int {
	n := 0
	length, end := firstLen, firstLen
	for end <= until {
		n++
		if length > math.MaxUint64/growth {
			break
		}
		length *= growth
		if end > math.MaxUint64-length {
			break
		}
		end += length
	}
	return n
}

// leakageSpec is the public pacing configuration the leakage checks use.
type leakageSpec struct {
	rates              []uint64
	olat               uint64
	firstLen, growth   uint64
	untilLo, untilHi   uint64 // bracket of the shards' clocks at the snapshot
	tenantsWithTraffic []string
}

// checkLeakage verifies the store's leakage account: per shard, leaked bits
// equal transitions × lg|R| and stay within |E|·lg|R| for the epochs that
// fit in the run; the timing adversary's reconstruction from the reported
// rate history agrees; per tenant, bits equal transitions × lg|R| and no
// tenant is charged more transitions than the shards made.
func checkLeakage(st server.Stats, ls leakageSpec) []error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	lg := lgRates(len(ls.rates))
	maxEpochs := epochsBy(ls.firstLen, ls.growth, ls.untilHi)
	var total uint64
	var sum float64
	for _, sh := range st.Shards {
		if len(sh.RateChanges) == 0 {
			bad("shard %d: no rate history (epoch 0 missing)", sh.Shard)
			continue
		}
		trans := len(sh.RateChanges) - 1
		total += uint64(trans)
		sum += sh.LeakedBits
		if want := float64(trans) * lg; math.Abs(sh.LeakedBits-want) > 1e-9 {
			bad("shard %d: leaked %.3f bits, but %d transitions × lg|R| = %.3f", sh.Shard, sh.LeakedBits, trans, want)
		}
		if trans > maxEpochs {
			bad("shard %d: %d transitions, but only %d epoch boundaries fit in the run (|E|·lg|R| = %.1f bits)",
				sh.Shard, trans, maxEpochs, float64(maxEpochs)*lg)
		}
		rec := adversary.ReconstructSchedule(sh.RateChanges, len(ls.rates))
		if rec.Transitions != trans || math.Abs(rec.Bits-sh.LeakedBits) > 1e-9 {
			bad("shard %d: adversary reconstructs %d transitions / %.3f bits, store reports %d / %.3f",
				sh.Shard, rec.Transitions, rec.Bits, trans, sh.LeakedBits)
		}
		for i, rc := range sh.RateChanges {
			if !member(rc.Rate, ls.rates) {
				bad("shard %d: epoch %d rate %d is not in R = %v", sh.Shard, i, rc.Rate, ls.rates)
			}
		}
	}
	if math.Abs(st.LeakedBits-sum) > 1e-9 {
		bad("store leaked %.3f bits, shards sum to %.3f", st.LeakedBits, sum)
	}
	seen := map[string]bool{}
	for _, ts := range st.Tenants {
		seen[ts.Tenant] = true
		if want := float64(ts.Transitions) * lg; math.Abs(ts.LeakedBits-want) > 1e-9 {
			bad("tenant %q: leaked %.3f bits, but %d transitions × lg|R| = %.3f", ts.Tenant, ts.LeakedBits, ts.Transitions, want)
		}
		if ts.Transitions > total {
			bad("tenant %q: charged %d transitions, shards made %d", ts.Tenant, ts.Transitions, total)
		}
	}
	if total > 0 {
		for _, t := range ls.tenantsWithTraffic {
			if !seen[t] {
				bad("tenant %q sent traffic across %d transitions but has no leakage account", t, total)
			}
		}
	}
	return errs
}

func member(x uint64, xs []uint64) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// checkGrid verifies that every shard issued (real + dummy) the slots its
// reported rate history implies, to within one slot: a paced shard must
// fill every grid slot, with a dummy when nothing is queued. The shards'
// clocks at the snapshot lie in [untilLo, untilHi].
func checkGrid(st server.Stats, ls leakageSpec) []error {
	var errs []error
	for _, sh := range st.Shards {
		issued := sh.RealAccesses + sh.DummyAccesses
		lo := gridSlots(sh.RateChanges, ls.olat, ls.untilLo)
		hi := gridSlots(sh.RateChanges, ls.olat, ls.untilHi)
		if issued+1 < lo || issued > hi+1 {
			errs = append(errs, fmt.Errorf("shard %d: issued %d slots (%d real + %d dummy), its rate history implies %d–%d",
				sh.Shard, issued, sh.RealAccesses, sh.DummyAccesses, lo, hi))
		}
	}
	return errs
}

// gridSlots counts the slots a paced shard must have started before cycle
// until, given its rate history: the paper's rule (§2.1) is that access i+1
// starts rate cycles after access i completes, an access takes olat
// cycles, and the rate for a gap is the one chosen at the last epoch
// boundary at or before the completion that opens it.
func gridSlots(history []core.RateChange, olat, until uint64) uint64 {
	if len(history) == 0 {
		return 0
	}
	var n, done uint64 // done: when the previous access completed
	next := 1          // index of the first rate change not yet in force
	rate := history[0].Rate
	for {
		for next < len(history) && history[next].Cycle <= done {
			rate = history[next].Rate
			next++
		}
		start := done + rate
		if start >= until {
			return n
		}
		n++
		done = start + olat
	}
}

// paperEpochs is |E| for the paper's accounting schedule: the first epoch is
// 2^30 cycles, each next one growth times longer, until Tmax = 2^62. Epoch
// lengths are powers of two, so the count is the number of growth steps from
// 2^30 to 2^62: (62 − 30) / lg(growth), rounded up.
func paperEpochs(growth uint64) int {
	step := bits.Len64(growth) - 1
	return (62 - 30 + step - 1) / step
}

// checkHeadline verifies the §9.3 headline's shape: no scheme runs faster
// than base_dram, static overhead never falls as the static rate slows
// (300 → 500 → 1300), and the dynamic scheme's dummy share lies in (0, 1).
func checkHeadline(h experiments.Headline) []error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	for _, x := range []struct {
		name string
		v    float64
	}{
		{"base_oram", h.BaseORAMPerfX}, {"dynamic_R4_E4", h.DynPerfX},
		{"static_300", h.S300PerfX}, {"static_500", h.S500PerfX}, {"static_1300", h.S1300PerfX},
	} {
		if !(x.v >= 1) {
			bad("%s runs %.3f× base_dram: faster than the insecure baseline", x.name, x.v)
		}
	}
	if !(h.S300PerfX <= h.S500PerfX && h.S500PerfX <= h.S1300PerfX) {
		bad("static overhead falls as the rate slows: 300 → %.3f×, 500 → %.3f×, 1300 → %.3f×", h.S300PerfX, h.S500PerfX, h.S1300PerfX)
	}
	if !(h.DynDummyFrac > 0 && h.DynDummyFrac < 1) {
		bad("dynamic dummy fraction %.4f is outside (0, 1)", h.DynDummyFrac)
	}
	return errs
}
