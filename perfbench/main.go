// Command perfbench is the repository benchmark: one process that runs one of
// three workloads against the simulator, checks every output it produces,
// and prints its metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload big-mesh --seed 7 --seconds 20 --trace 1
//	bash perfbench/run.sh --record          # re-record the default-seed expectations
//
// With --trace 0 the run is untraced and reports the end-to-end metrics; with
// --trace 1 it reports the per-layer breakdown, measured from outside the
// program through its public functions and existing hooks. See README.md for
// the workloads, the metric-to-layer map and the correctness gate.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs are committed under testdata.
const defaultSeed = 1

// heldOutSeed is kept out of every tuning run; later claims are confirmed on
// it (its runs are checked by the invariants only).
const heldOutSeed = 90210

// runConfig is what a workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workers int
}

// workload is one benchmark input set; BENCHMARK.json and README.md say why
// each was chosen.
type workload struct {
	name string
	run  func(cfg runConfig, r *report) error
}

var workloads = []workload{
	{"paper-sweep", runPaperSweep},
	{"big-mesh", runBigMesh},
	{"serve-mix", runServeMix},
}

// Metric units.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitUS    = "us"
	unitRate  = "1/s"
	unitCount = "count"
	unitRatio = "ratio"
	unitMB    = "MiB"
	unitBytes = "bytes"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome: operation counts, failures (every
// wrong or refused output is one), and metrics.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metricValue
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metricValue{}} }

// set records a metric.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// ok counts one attempted operation that succeeded.
func (r *report) ok() { r.attempted++ }

// fail counts one attempted operation that failed and keeps its reason.
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note adds an informational line printed before the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-sweep, big-mesh or serve-mix")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed; the program receives only the inputs generated from it")
		seconds = flag.Int("seconds", 30, "how long one run measures")
		trace   = flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		record  = flag.Bool("record", false, "re-record the default-seed expectations under perfbench/testdata and exit")
	)
	flag.Parse()

	if *record {
		if err := recordAll(); err != nil {
			fatal(err)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0|1"))
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
	}
	stamp := map[string]any{
		"workload":   wl.name,
		"seed":       cfg.seed,
		"held_out":   cfg.seed == heldOutSeed,
		"trace":      *trace,
		"seconds":    *seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
	b, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", b)

	r := newReport()
	if err := wl.run(cfg, r); err != nil {
		fatal(fmt.Errorf("%s: %w", wl.name, err))
	}
	if r.attempted == 0 {
		fatal(fmt.Errorf("%s: no operation was attempted", wl.name))
	}
	if cfg.trace {
		for name := range r.metrics {
			if !perLayerNames[name] {
				delete(r.metrics, name)
			}
		}
	} else {
		for name := range r.metrics {
			if !endToEndNames[name] {
				delete(r.metrics, name)
			}
		}
	}
	want := endToEndNames
	if cfg.trace {
		want = perLayerNames
	}
	for name := range want {
		if _, ok := r.metrics[name]; !ok {
			fatal(fmt.Errorf("%s: metric %s was not measured", wl.name, name))
		}
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
		fmt.Println("FAIL:", p)
	}
	correct := r.failed == 0
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !correct {
		os.Exit(1)
	}
}

// endToEndNames and perLayerNames are the metric sets of the untraced and
// traced runs; BENCHMARK.json lists the same names.
var endToEndNames = setOf(
	"setup_s", "wall_s", "frames_per_s", "req_per_s", "req_p50_ms", "req_p99_ms",
	"miss_p50_ms", "rss_peak_mb",
)

var perLayerNames = setOf(
	"routing.weights_s", "routing.paths_s", "routing.repair_s", "routing.tables_s",
	"routing.replay_n", "routing.replay_ratio",
	"controlplane.full_n", "controlplane.full_s", "controlplane.incremental_n",
	"controlplane.incremental_s", "controlplane.idle_n", "controlplane.idle_s", "controlplane.share",
	"sim.frames", "sim.snapshot_s", "sim.schedule_s", "sim.faults_s",
	"core.materialize_s",
	"runner.cells", "runner.busy_s", "runner.utilization", "runner.cell_p50_ms", "runner.cell_max_ms",
	"scenario.fingerprint_us",
	"serve.hit_n", "serve.miss_n", "serve.join_n", "serve.hit_p50_ms", "serve.miss_p50_ms",
	"serve.join_p50_ms", "serve.queue_wait_s",
	"store.hit_ratio", "store.puts", "store.evictions", "store.bytes",
	"campaign.replicates",
	"trace.overhead", "trace.coverage", "trace.rerun_share",
)

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// zeroLayers reports the per-layer metrics of layers a workload never enters
// as 0, so every traced run carries the full metric set.
func zeroLayers(r *report, names ...string) {
	for _, n := range names {
		unit := unitCount
		switch {
		case strings.HasSuffix(n, "_s"):
			unit = unitS
		case strings.HasSuffix(n, "_ms"):
			unit = unitMS
		case strings.HasSuffix(n, "_us"):
			unit = unitUS
		case strings.HasSuffix(n, "share"), strings.HasSuffix(n, "ratio"), strings.HasSuffix(n, "utilization"):
			unit = unitRatio
		case n == "store.bytes":
			unit = unitBytes
		}
		r.set(n, 0, unit)
	}
}

// forEach calls f(0..n-1) on workers goroutines and waits for all of them.
func forEach(n, workers int, f func(i int)) {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// --- small statistics helpers ----------------------------------------------

// quantile returns the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p99Note states how many samples lie beyond the reported p99.
func p99Note(r *report, what string, n int) {
	beyond := n - int(math.Ceil(0.99*float64(n)))
	r.note("samples %s: n=%d, %d beyond p99", what, n, beyond)
}

// setupReps is how many set-ups a run times; the median is reported, so a
// slow first set-up (cold heap) does not count.
const setupReps = 31

// timeSetup runs setup once and returns its result and duration.
func timeSetup[T any](setup func() (T, error)) (T, float64, error) {
	// Start every set-up from a collected heap, so that no set-up pays for
	// the garbage of the one before.
	runtime.GC()
	start := time.Now()
	v, err := setup()
	return v, time.Since(start).Seconds(), err
}

// setupMedian times reps-1 more set-ups after the one the run used (which
// took first seconds), releases each with done, and returns the median of
// all reps. A run calls it after its measured work and after reading its
// peak resident set: the repeats exist only to time set-up, and a burst of
// them sets a peak no user of the workload would see (a paper-sweep set-up
// allocates about 12 MB; 31 of them in a row lifted the peak by 2-6 MiB in
// some runs and not in others).
func setupMedian[T any](first float64, reps int, setup func() (T, error), done func(T)) (float64, error) {
	ds := []float64{first}
	for len(ds) < reps {
		v, d, err := timeSetup(setup)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
		if done != nil {
			done(v)
		}
	}
	return median(ds), nil
}

// peakRSSMiB returns the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// --- environment stamp ------------------------------------------------------

// commit returns the checked-out git commit, or "unknown" outside a git
// work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the tree, so a
// result identifies the code it measured even where git is absent.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if base := d.Name(); path != "." && strings.HasPrefix(base, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
