// Command benchmark is the repository's performance benchmark: four
// workloads replayed from fixed, seeded operation lists against the
// library and the real crserve binary, reported as six end-to-end metrics
// and, in a separate traced run, as per-layer metrics. BENCHMARK.json at
// the repository root declares it; benchmark/README.md explains it.
//
//	go run ./benchmark -workload all                 every workload, end to end
//	go run ./benchmark -workload patient-sds-exam    one workload
//	go run ./benchmark -workload all -trace 1        the traced, per-layer run
//	go run ./benchmark -aa 5                         A/A calibration
//	go run ./benchmark -list                         workload and metric names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the operation lists")
		seconds  = flag.Float64("seconds", runSeconds, "how long a run replays its op list; the first pass always completes")
		trace    = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		jsonOut  = flag.String("json", "", "also write the machine-readable result to this file")
		aa       = flag.Int("aa", 0, "A/A calibration: run the whole set 2N times, alternating labels A and B")
		list     = flag.Bool("list", false, "print workload and metric names and exit")
		smoke    = flag.Bool("smoke", false, "tiny corpus, one pass, in-process twin instead of crserve processes")
		spec     = flag.Bool("write-spec", false, "print BENCHMARK.json as generated from the metric table and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	switch {
	case *list:
		printList(os.Stdout)
		return 0
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return 0
	}

	if !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "-seconds %v: a run measures for a positive number of seconds\n", *seconds)
		return 2
	}

	// Children are killed and waited for, and generated data is removed, on
	// every exit path, including an interrupt.
	defer releaseAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		releaseAll()
		os.Exit(130)
	}()

	if *aa > 0 {
		if err := runAA(*aa, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	var defs []*workloadDef
	if *workload == "all" {
		for i := range workloadDefs {
			defs = append(defs, &workloadDefs[i])
		}
	} else if d := findWorkload(*workload); d != nil {
		defs = []*workloadDef{d}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q; see -list\n", *workload)
		return 2
	}
	sc := frozenScale
	if *smoke {
		sc = smokeScale
	}

	env := environmentLine()
	fmt.Println(env)
	report := struct {
		Environment string    `json:"environment"`
		Results     []*result `json:"results"`
	}{Environment: env}
	code := 0
	shared := &sharedLayers{}
	for _, def := range defs {
		var (
			res *result
			err error
		)
		if *trace != 0 {
			res, err = runTraced(def, sc, *smoke, *seed, shared)
		} else {
			res, err = runWorkload(def, sc, *smoke, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		report.Results = append(report.Results, res)
		printResult(res)
		if !res.correct() {
			code = 1
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The driver reads the last line of standard output.
	for _, res := range report.Results {
		line, err := driverLine(res, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", res.Workload, err)
			return 1
		}
		fmt.Println(line)
	}
	return code
}

// environmentLine names what the numbers were measured on.
func environmentLine() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("environment: commit=%s %s nproc=%d GOMAXPROCS=%d",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func unitOf(name string) string {
	for _, m := range endToEndSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layerSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// printResult prints every metric of a run by name with its unit.
func printResult(r *result) {
	fmt.Printf("\n%s  seed=%d passes=%d ops_attempted=%d ops_failed=%d\n",
		r.Workload, r.Seed, r.Passes, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-34s %14.4f %-6s", n, r.Metrics[n], unitOf(n))
		if s, ok := r.Spread[n]; ok {
			line += fmt.Sprintf("  %s.pass_spread_pct=%.1f", n, s)
		}
		fmt.Println(line)
	}
	for _, a := range r.Assertions {
		fmt.Printf("  ASSERTION FAILED: %s\n", a)
	}
	if r.TraceFile != "" {
		fmt.Printf("  trace written to %s\n", r.TraceFile)
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func driverLine(r *result, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	add := func(name, unit string) {
		if v, ok := r.Metrics[name]; ok {
			metrics[name] = value{v, unit}
		}
	}
	if traced {
		for _, m := range layerSpecs {
			add(m.Name, m.Unit)
		}
	} else {
		for _, m := range endToEndSpecs {
			add(m.Name, m.Unit)
		}
	}
	// A metric that is not a finite number makes this fail, as it should.
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	return string(line), err
}
