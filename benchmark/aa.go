package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the calibration behind the regression bounds: the whole set of
// workloads 2N times from the same code, alternating the labels A and B,
// each run a fresh process as the driver starts them. Run i of either
// label uses seed i. For every workload and end-to-end metric it prints
// both medians, both quartile spreads (Q3-Q1 over the median, the
// driver's measure), the gap between the medians in the metric's worse
// direction, and max(5%, 3 x gap).
func runAA(n int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type cell struct{ a, b []float64 }
	cells := map[string]*cell{}
	key := func(w, m string) string { return w + "/" + m }
	for i := 1; i <= n; i++ {
		for _, label := range []string{"A", "B"} {
			for _, w := range workloadSpecs {
				fmt.Fprintf(os.Stderr, "aa: run %d%s %s\n", i, label, w.Name)
				metrics, err := runChild(exe, w.Name, int64(i), seconds)
				if err != nil {
					return fmt.Errorf("run %d%s of %s: %w", i, label, w.Name, err)
				}
				for m, v := range metrics {
					c := cells[key(w.Name, m)]
					if c == nil {
						c = &cell{}
						cells[key(w.Name, m)] = c
					}
					if label == "A" {
						c.a = append(c.a, v)
					} else {
						c.b = append(c.b, v)
					}
				}
			}
		}
	}
	fmt.Printf("| workload | metric | median A | median B | spread A %% | spread B %% | gap %% | rule %% | bound %% |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloadSpecs {
		for _, m := range endToEndSpecs {
			c := cells[key(w.Name, m.Name)]
			ma, mb := median(c.a), median(c.b)
			gap := (mb - ma) / ma * 100
			if m.Better == "higher" {
				gap = -gap
			}
			// rule is the bound the issue proposed: what a comparison of two
			// commits can resolve in this cell.
			rule := max(5, 3*math.Abs(gap))
			fmt.Printf("| %s | %s | %.4g | %.4g | %.1f | %.1f | %+.1f | %.0f | %.0f |\n",
				w.Name, m.Name, ma, mb, quartileSpread(c.a)*100, quartileSpread(c.b)*100, gap, rule, m.Bound*100)
		}
	}
	return nil
}

// runChild starts one run as the driver would and parses its last line.
func runChild(exe, workload string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("last line of output: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	out := map[string]float64{}
	for name, v := range line.Metrics {
		out[name] = v.Value
	}
	return out, nil
}
