// Command perfbench is the repository benchmark: epoch-resolved n-to-m
// redistributions on both transport engines plus a small-query mix, with
// every layer timed from outside. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each run repeats whole worlds (set-up, then a fixed number of epochs)
// until --seconds have passed, validates every byte the consumers read
// outside the timed epochs, prints each metric on its own line, and ends
// with one JSON result line. --trace 0 reports the end-to-end metrics;
// --trace 1 alternates untraced and traced worlds and reports the
// per-layer metrics, the layers' self times and the tracing overhead, and
// writes the spans to a JSON file. See NOTES.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if childMain() {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line flags of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 40, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	bw, ok := workloads()[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	return bench(bw, o, stdout, stderr)
}

// bench runs one workload and prints its report; it returns the exit code.
func bench(bw benchWorkload, o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(runtime.NumCPU())
	printHeader(stdout, bw, o)

	steal0, total0 := cpuSteal()
	rr, err := runWorkload(bw, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	steal1, total1 := cpuSteal()
	fmt.Fprintf(stdout, "# worlds=%d cpu_steal=%.1f%% (CPU time the hypervisor gave to others during the run)\n",
		len(rr.worlds), 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	var ms, extra []metric
	if o.trace {
		ms = rr.perLayer()
		var spans [][]span
		for _, w := range rr.worlds {
			for _, r := range w.Ranks {
				spans = append(spans, r.Spans)
			}
		}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", bw.Name, o.seed))
		if err := writeTrace(path, bw.Name, o.seed, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	} else {
		ms = rr.endToEnd()
		extra = rr.memory(aggregate(rr.worlds))
	}
	attempted, failed := rr.attempts()
	if !o.trace {
		fmt.Fprintf(stdout, "%-32s %14.6g %-12s %d of %d validated units failed\n",
			"failed_ratio", ratio(float64(failed), float64(attempted)), "ratio", failed, attempted)
	}
	for _, m := range append(ms, extra...) {
		fmt.Fprintf(stdout, "%-32s %14.6g %-12s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, map[string]value{}}
	for _, m := range ms {
		res.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: consumer data mismatch")
		return 1
	}
	return 0
}

// runWorkload runs the set-up probes, then whole worlds until the time is
// spent: at least MinWorlds, and no new world that would likely end past
// the deadline. A traced run alternates untraced (even) and traced (odd)
// worlds.
func runWorkload(bw benchWorkload, o options) (runResult, error) {
	rr := runResult{bw: bw}
	if bw.Engine == engineSock {
		base, err := runWorld(bw, engineChan, o.seed, -1, false)
		if err != nil {
			return rr, fmt.Errorf("in-proc reference: %w", err)
		}
		rr.baseline = &base
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	probe := bw
	probe.Epochs = 0
	for k := 0; k < bw.SetupProbes; k++ {
		res, err := runWorld(probe, bw.Engine, o.seed, -2-k, false)
		if err != nil {
			return rr, fmt.Errorf("set-up probe: %w", err)
		}
		rr.worlds = append(rr.worlds, res)
	}
	var last time.Duration
	for wi := 0; wi < bw.MinWorlds || time.Since(start)+last <= budget; wi++ {
		w0 := time.Now()
		res, err := runWorld(bw, bw.Engine, o.seed, wi, o.trace && wi%2 == 1)
		if err != nil {
			return rr, err
		}
		last = time.Since(w0)
		rr.worlds = append(rr.worlds, res)
	}
	rr.parentRSS = peakRSS()
	return rr, nil
}

// printHeader records what the numbers depend on.
func printHeader(w io.Writer, bw benchWorkload, o options) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", bw.Name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d go=%s %s/%s llc=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, llcSize())
	fmt.Fprintf(w, "# engine=%s producers=%d consumers=%d grid_points_per_producer=%d particles_per_producer=%d epochs_per_world=%d bytes_per_epoch=%d cost_model=off\n",
		bw.Engine, bw.Spec.Producers, bw.Spec.Consumers, bw.Spec.GridPointsPerProducer,
		bw.Spec.ParticlesPerProducer, bw.Epochs, bw.bytesPerEpoch())
	if bw.Query {
		fmt.Fprintf(w, "# query mix: %d closed-loop reads per consumer per epoch, %d^3 boxes, zipf s=1.2 over 64 boxes\n", bw.Reads, queryBoxSide)
	}
}

// cpuSteal returns the host-wide steal and total CPU time from
// /proc/stat, in clock ticks (zeros where it is unavailable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// llcSize reads the size of the largest CPU cache from sysfs.
func llcSize() string {
	best := "unknown"
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		best = strings.TrimSpace(string(b))
	}
	return best
}
