package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs the workload n times in child processes (seeds seed,
// seed+1, …) and prints, for each end-to-end metric, the median, the
// quartiles and the interquartile spread as a share of the median beside the
// metric's bound in BENCHMARK.json (read from the working directory). A
// metric is steady when its spread stays below a third of its bound.
func steadiness(name string, seed int64, seconds float64, n int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var shares []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("seed %d: parsing result: %w", s, err)
		}
		if !r.Correct {
			return fmt.Errorf("seed %d: a check failed", s)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
		}
		fmt.Fprintf(os.Stderr, "steady %s seed %d: %s\n", name, s, lines[len(lines)-1])
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s: %d runs, failed/attempted %v\n", name, n, shares)
	fmt.Fprintf(&buf, "%-16s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "steady (spread < bound/3)")
	for _, m := range endToEnd {
		vs := values[m.name]
		if len(vs) < 2 {
			continue
		}
		q := quartiles(vs)
		spread := (q[2] - q[0]) / q[1]
		b := bounds[m.name]
		verdict := "yes"
		if m.name == "setup_s" {
			verdict = "n/a (median only)"
		} else if spread >= b/3 {
			verdict = "NO"
		}
		fmt.Fprintf(&buf, "%-16s %12.5g %12.5g %12.5g %8.4f %7.3f  %s\n", m.name, q[1], q[0], q[2], spread, b, verdict)
	}
	_, err = os.Stdout.Write(buf.Bytes())
	return err
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// readBounds returns the end-to-end bounds of a BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
