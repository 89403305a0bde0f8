// Command perfbench is the repository benchmark: it drives the serving
// stack and the batch sensing path through their public package
// functions, checks every verdict against a batch reference, and prints
// end-to-end metrics (untraced run) or a per-layer breakdown (traced run).
// README.md in this directory records why each workload exists and which
// end-to-end metric each layer metric should move.
//
//	perfbench --workload serve-fam-saturate --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries the
// provenance (host, run, and every metric's sample count, median,
// quartiles and the statistic it reports). A failed output check prints
// the result with correct=false and exits 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// endToEnd and perLayer are the metric sets of BENCHMARK.json, in order,
// with their units; every workload reports every metric of the set its
// mode selects. perLayer holds the layer metrics every workload measures,
// plus counts and shares that are truthfully 0 where a workload does not
// exercise the layer ("n/a" in the provenance). The per-layer times only
// some workloads exercise are in layerTimes: they go to the provenance
// line, by name and unit, on the workloads that measure them.
var endToEnd = []spec{
	{"samples_per_s", "samples/s"},
	{"cpu_ms_per_window", "ms"},
	{"verdict_accuracy", "ratio"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []spec{
	{"detect.decide_us", "us"},
	{"residual_cpu_share", "ratio"},
	{"accumulator.cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_window", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"wire.bytes_per_sample", "B/sample"},
	{"stream.queued_samples_p50", "samples"},
	{"stream.queued_samples_max", "samples"},
	{"stream.decisions_dropped", "count"},
	{"trace.overhead_pct", "%"},
	{"soc.sim_cycles_per_host_s", "cycles/s"},
	{"montium.table1.mac", "cycles"},
	{"montium.table1.read", "cycles"},
	{"montium.table1.fft", "cycles"},
	{"montium.table1.reshuffle", "cycles"},
	{"montium.table1.init", "cycles"},
	{"noc.values_per_block", "count"},
	{"montium.model_cycles.fam-q15", "cycles"},
}

var layerTimes = []spec{
	{"decision_latency_p50_ms", "ms"},
	{"decision_latency_p90_ms", "ms"},
	{"decision_latency_p99_ms", "ms"},
	{"wire.send_us_per_frame", "us"},
	{"shard.push_us_per_frame", "us"},
	{"accumulator.push_ns_per_sample", "ns/sample"},
	{"accumulator.snapshot_us", "us"},
	{"accumulator.reset_us", "us"},
	{"generator.lag_p99_ms", "ms"},
	{"estimate_ms.direct", "ms"},
	{"estimate_ms.fam", "ms"},
	{"estimate_ms.ssca", "ms"},
	{"estimate_ms.fam-q15", "ms"},
	{"window_ms.platform", "ms"},
	{"window_ms.ssca", "ms"},
	{"window_ms.fam", "ms"},
	{"window_ms.fam-q15", "ms"},
	{"window_ms.direct", "ms"},
	{"soc.run_ms", "ms"},
	{"sim_block_us", "sim_us"},
}

// options are the command-line settings shared by every workload.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	cpuprofile string
}

// outcome is one workload run's result before printing.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks: the run is not correct
	suppressed        int      // failed checks beyond maxProblems
	rep               report
	run               map[string]any // workload-specific run provenance
}

// maxProblems caps the failed checks listed; the rest are counted.
const maxProblems = 20

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) == maxProblems {
		o.suppressed++
		return
	}
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options, *outcome) error{
	"serve-fam-saturate": runServeSaturate,
	"serve-pruned-paced": runServePaced,
	"watch-batch":        runWatchBatch,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve-fam-saturate, serve-pruned-paced or watch-batch")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the traced phase to this file")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	out := &outcome{rep: report{m: map[string]metricDetail{}}, run: map[string]any{}}
	if err := run(o, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if err := emit(o, out, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(out.problems) > 0 {
		for _, p := range out.problems {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
		}
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit writes the provenance line and the result line.
func emit(o options, out *outcome, want []spec) error {
	metrics := map[string]metricOut{}
	details := map[string]metricDetail{}
	for _, sp := range want {
		d, ok := out.rep.m[sp.name]
		if !ok {
			if !o.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", sp.name)
			}
			d = metricDetail{Reports: "n/a"}
		}
		if !finite(d.Value) {
			out.problem("metric %s is not finite (%v)", sp.name, d.Value)
			d.Value = 0
		}
		d.Unit = sp.unit
		metrics[sp.name] = metricOut{Value: d.Value, Unit: sp.unit}
		details[sp.name] = d
	}
	layers := map[string]metricDetail{}
	if o.trace {
		for _, sp := range layerTimes {
			if d, ok := out.rep.m[sp.name]; ok {
				d.Unit = sp.unit
				layers[sp.name] = d
			}
		}
	}
	run := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"commit": commit(), "source_sha256": sourceDigest(),
	}
	for k, v := range out.run {
		run[k] = v
	}
	prov := map[string]any{
		"host": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"cpu_model": cpuModel(), "go_version": runtime.Version(),
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		},
		"run":         run,
		"metrics":     details,
		"layer_times": layers,
		"problems":    out.problems,
		"suppressed":  out.suppressed,
	}
	b, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	b, err = json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// startProfile starts the -cpuprofile capture; the returned stop ends it.
func startProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out revision, or "none" outside a git work
// tree (the source digest identifies the code either way).
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go source and module file of the checkout
// (build outputs excluded), identifying the measured code.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
