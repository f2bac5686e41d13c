// Command perfbench is the repository's benchmark. It runs one named
// workload through the program's public entry points for a fixed time,
// checks the outputs, and prints every end-to-end metric by name and unit;
// with --trace 1 it instead makes one traced run and prints the per-layer
// metrics. BENCHMARK.json at the repository root lists the workloads and
// metrics, and layers.json beside this file records which layers each
// workload loads or bypasses and which end-to-end metric each per-layer
// metric should move.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload host-traces --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fbdcnet/internal/core"
)

// buildDir is the benchmark's scratch directory, relative to the
// repository root: sockets and span files go here.
const buildDir = ".bench_build"

// After the timed operations a run sets the workload up again, at least
// minSetups times and for setupBudget (at most maxSetups times), and
// reports the median set-up: a single set-up of the tiny preset takes
// tens of microseconds, too short to time once.
const (
	minSetups   = 9
	maxSetups   = 1000
	setupBudget = 250 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	record   bool
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	flags.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flags.Uint64Var(&o.seed, "seed", 42, "seed the workload's inputs are made from")
	flags.IntVar(&o.seconds, "seconds", 10, "how long to measure; at least one operation runs")
	flags.IntVar(&o.trace, "trace", 0, "1 makes one traced run and prints per-layer metrics")
	flags.BoolVar(&o.record, "record", false, "print the output hashes of one operation, for expected.json")
	if err := flags.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// The benchmark reads the golden transcript and stamps the source
	// tree, so it must start at the repository root.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	width := clientWidth(w)
	cfg := w.config(o.seed, width)
	if o.record {
		return record(w, cfg, width, stdout, stderr)
	}
	want, err := expectations(w, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res *result
	if o.trace == 1 {
		res, err = tracedRun(w, cfg, width, want)
	} else {
		res, err = timedRun(w, cfg, width, want, time.Duration(o.seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.chk.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	res.prov = provenance(w, cfg, width, o)
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	chk *checker
	// metrics are the gated metrics of the final line: end-to-end ones
	// with --trace 0, per-layer ones with --trace 1.
	metrics map[string]metric
	// reported are printed with the metrics but not gated: they move
	// with the seed or with other tenants' load on the machine.
	reported map[string]metric
	detail   map[string]any // printed on the provenance line
	prov     map[string]any
}

// print writes a human-readable table, the provenance line, and last the
// result object.
func (r *result) print(out io.Writer) error {
	printTable(out, r.metrics, "")
	printTable(out, r.reported, " (reported, not gated)")
	prov := map[string]any{"provenance": r.prov}
	for k, v := range r.detail {
		prov[k] = v
	}
	if len(r.reported) > 0 {
		prov["reported"] = r.reported
	}
	b, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	b, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.chk.failed == 0, r.chk.attempted, r.chk.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func printTable(out io.Writer, ms map[string]metric, note string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-40s %16.6g %s%s\n", n, ms[n].Value, ms[n].Unit, note)
	}
}

// opSample is one measured operation.
type opSample struct {
	wall, cpu time.Duration
	steal     time.Duration // CPU time the hypervisor took from the machine
	alloc     uint64        // heap bytes allocated
	work      float64
}

// cpuTime returns the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// stolen returns the CPU time the hypervisor has taken from this
// machine's CPUs, summed over CPUs: the steal column of /proc/stat, in
// USER_HZ (1/100 s) ticks. It is 0 where the file is missing.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// setUp builds one operation's instance and returns the CPU time it
// took. CPU time, unlike wall time, does not grow when the hypervisor
// takes the machine's CPUs away, which on a shared host moves wall time
// by tens of percent from one run to the next.
func setUp(w *workloadDef, cfg core.Config, width int) (*instance, time.Duration, error) {
	c0 := cpuTime()
	in, err := w.setup(cfg, width)
	return in, cpuTime() - c0, err
}

// measure runs one untraced operation on a fresh instance after a full
// collection, so every operation starts from the same heap.
func measure(w *workloadDef, cfg core.Config, width int) (opSample, opResult, time.Duration, error) {
	in, setup, err := setUp(w, cfg, width)
	if err != nil {
		return opSample{}, opResult{}, 0, err
	}
	defer closeInstance(in)
	runtime.GC()
	a0, c0, st0, t0 := totalAlloc(), cpuTime(), stolen(), time.Now()
	r := w.run(in, nil, -1)
	s := opSample{wall: time.Since(t0), cpu: cpuTime() - c0, steal: stolen() - st0, alloc: totalAlloc() - a0, work: r.work}
	return s, r, setup, nil
}

// timedRun runs operations until the measuring time is used up (at least
// one), then checks their outputs and reports per-operation medians.
func timedRun(w *workloadDef, cfg core.Config, width int, want map[string]string, seconds time.Duration) (*result, error) {
	chk := newRunChecker(w, width, want)
	var samples []opSample
	var setups []time.Duration
	start := time.Now()
	for len(samples) == 0 || time.Since(start) < seconds {
		s, r, setup, err := measure(w, cfg, width)
		if err != nil {
			return nil, err
		}
		chk.op(r)
		samples = append(samples, s)
		setups = append(setups, setup)
	}
	rss := maxRSSMiB()
	setupStart := time.Now()
	for len(setups) < maxSetups && (len(setups) < minSetups || time.Since(setupStart) < setupBudget) {
		runtime.GC() // time the set-up, not the collection of earlier garbage
		in, d, err := setUp(w, cfg, width)
		closeInstance(in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	if err := verifyAfter(w, cfg, chk); err != nil {
		return nil, err
	}
	var work float64 // the same for every operation of a seed
	if w.work != nil {
		work = w.work(cfg)
	}
	for _, s := range samples {
		work = max(work, s.work)
	}
	chk.check(work > 0, "operations reported no work")
	per := func(f func(opSample) float64) float64 {
		if work <= 0 { // failed operations; correct is false
			return 0
		}
		return medianOf(samples, f)
	}
	m := map[string]metric{
		"setup_s":          {medianDur(setups), "s"},
		"cpu_ns_per_work":  {per(func(s opSample) float64 { return float64(s.cpu.Nanoseconds()) / work }), "ns"},
		"alloc_b_per_work": {per(func(s opSample) float64 { return float64(s.alloc) / work }), "B"},
		"ops_ok_frac":      {chk.okFrac(), "frac"},
	}
	reported := map[string]metric{
		"wall_s":          {per(func(s opSample) float64 { return s.wall.Seconds() }), "s"},
		w.unit + "_per_s": {per(func(s opSample) float64 { return work / s.wall.Seconds() }), "1/s"},
		"cpu_s":           {per(func(s opSample) float64 { return s.cpu.Seconds() }), "s"},
		"alloc_mib":       {per(func(s opSample) float64 { return float64(s.alloc) / (1 << 20) }), "MiB"},
		"max_rss_mib":     {rss, "MiB"},
		"ops_failed_frac": {1 - chk.okFrac(), "frac"},
		"steal_frac": {per(func(s opSample) float64 {
			return s.steal.Seconds() / (s.wall.Seconds() * float64(runtime.NumCPU()))
		}), "frac"},
	}
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall.Seconds()
	}
	detail := map[string]any{
		"operations": len(samples), "op_wall_s": walls,
		"work_per_op": work, "work_unit": w.unit,
	}
	return &result{chk: chk, metrics: m, reported: reported, detail: detail}, nil
}

// verifyAfter runs the checks that need work outside the timed region:
// on a seed with no shipped hashes, fleet-agents' digest must equal an
// in-process collection's, computed here.
func verifyAfter(w *workloadDef, cfg core.Config, chk *checker) error {
	if w.reference == "" || len(chk.want) > 0 {
		return nil
	}
	ref, err := lookupWorkload(w.reference)
	if err != nil {
		return err
	}
	in, err := ref.setup(cfg, cfg.Taggers)
	if err != nil {
		return err
	}
	defer closeInstance(in)
	r := ref.run(in, nil, -1)
	if r.err != nil {
		return fmt.Errorf("%s reference: %w", ref.name, r.err)
	}
	for k, v := range r.outputs {
		chk.check(chk.first[k] == sha(v), "output %s differs from %s's", k, ref.name)
	}
	return nil
}

func medianOf(samples []opSample, f func(opSample) float64) float64 {
	vs := make([]float64, len(samples))
	for i, s := range samples {
		vs[i] = f(s)
	}
	return median(vs)
}

func medianDur(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return median(vs)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// record prints one operation's output hashes in expected.json's shape.
func record(w *workloadDef, cfg core.Config, width int, stdout, stderr io.Writer) int {
	_, r, _, err := measure(w, cfg, width)
	if err == nil {
		err = r.err
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hashes := map[string]string{}
	for k, v := range r.outputs {
		hashes[k] = sha(v)
	}
	b, err := json.MarshalIndent(map[string]any{fmt.Sprint(cfg.Seed): map[string]any{w.name: hashes}}, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// provenance stamps a result with where and how it was measured.
func provenance(w *workloadDef, cfg core.Config, width int, o options) map[string]any {
	commit, dirty := vcsStamp()
	return map[string]any{
		"workload":          w.name,
		"seed":              o.seed,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"cpu_model":         cpuModel(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"commit":            commit,
		"vcs_modified":      dirty,
		"source_sha256":     sourceDigest(),
		"client_goroutines": width,
		"client_conns":      connsOf(w, width),
		"params":            w.params(cfg, width),
	}
}

// connsOf returns the connections one operation opens.
func connsOf(w *workloadDef, width int) int {
	if w.agents {
		return width // one per agent
	}
	return 0
}

// sourceDigest hashes the Go sources and module files under the
// repository root, so a result names the exact tree it measured even
// where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

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

// vcsStamp returns the commit the binary was built from, when the build
// saw a git checkout.
func vcsStamp() (commit string, modified bool) {
	commit = "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return commit, false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	return commit, modified
}
