package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fbdcnet/internal/core"
	"fbdcnet/internal/topology"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tinyFleet is fleet-inproc shrunk to one window of the tiny preset, so a
// test runs the workload's real operation in milliseconds.
func tinyFleet() (*workloadDef, core.Config) {
	fleet, err := lookupWorkload("fleet-inproc")
	if err != nil {
		panic(err)
	}
	w := *fleet
	cfg := baseConfig(42, topology.ScaleTiny, 1)
	cfg.FleetWindows = 1
	return &w, cfg
}

func TestPlantedWrongHashCountsAsFailedOperation(t *testing.T) {
	w, cfg := tinyFleet()
	_, r, _, err := measure(w, cfg, 1)
	if err != nil || r.err != nil {
		t.Fatal(err, r.err)
	}
	good := newChecker(map[string]string{"digest": sha(r.outputs["digest"])})
	good.op(r)
	if good.failed != 0 || good.attempted != 2 {
		t.Fatalf("true hash: %d of %d checks failed: %v", good.failed, good.attempted, good.failures)
	}
	planted := newChecker(map[string]string{"digest": strings.Repeat("0", 64)})
	planted.op(r)
	if planted.failed != 1 || planted.attempted != 2 || planted.okFrac() != 0.5 {
		t.Fatalf("planted hash: %d of %d checks failed, want 1 of 2", planted.failed, planted.attempted)
	}
}

func TestFailedOperationCountsItsOutputs(t *testing.T) {
	c := newChecker(map[string]string{"a": "x", "b": "y"})
	c.op(opResult{err: os.ErrNotExist})
	if c.failed != 3 || c.attempted != 3 {
		t.Fatalf("%d of %d failed, want 3 of 3", c.failed, c.attempted)
	}
}

func TestRepeatedOperationsMustAgree(t *testing.T) {
	c := newChecker(map[string]string{})
	c.op(opResult{outputs: map[string][]byte{"k": []byte("one")}})
	c.op(opResult{outputs: map[string][]byte{"k": []byte("two")}})
	if c.failed != 1 {
		t.Fatalf("differing outputs of one seed: %d failures, want 1", c.failed)
	}
}

func TestShippedSeeds(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		for _, w := range workloads {
			want, err := expectations(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Errorf("%s: no expected outputs for seed %d", w.name, seed)
			}
		}
	}
	w, _ := lookupWorkload("host-traces")
	want, err := expectations(w, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(hostSections) {
		t.Fatalf("golden transcript gives %d section hashes, want %d", len(want), len(hostSections))
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer("t")
	tr.interval(-1, "root", "a", 0, 100)
	tr.interval(0, "x", "b", 10, 40)
	tr.interval(0, "y", "b", 30, 60) // overlaps x: parallel workers
	a := tr.coalesce(0, "z", "c")
	tr.spans[a.id].BusyNs, tr.spans[a.id].Count = 15, 2
	spans := tr.finish()
	if got := spans[0].SelfNs; got != 100-50-15 {
		t.Fatalf("root self = %d, want 35", got)
	}
	self := layerSelf(spans, 0)
	if self["b"] != 60 || self["c"] != 15 || self["a"] != 35 {
		t.Fatalf("layer self times %v", self)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, layers.json and the program in
// step: the same workloads and per-layer metrics, and every metric the
// layer table names exists.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []layerMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerMetrics()")
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	want := []string{"alloc_b_per_work B", "cpu_ns_per_work ns", "ops_ok_frac frac", "setup_s s"}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end %v, timed runs report %v", e2e, want)
	}

	known := map[string]bool{}
	for _, m := range perLayerMetrics() {
		known[m.Name] = true
	}
	doc, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := doc.Workloads[w.name]; !ok {
			t.Errorf("layers.json has no entry for %s", w.name)
		}
		for _, z := range doc.Workloads[w.name].Zero {
			if !known[z] {
				t.Errorf("layers.json: %s zero list names unknown metric %s", w.name, z)
			}
		}
	}
	for _, m := range bench.EndToEnd {
		known[m.Name] = true
	}
	for _, n := range []string{"wall_s", "cpu_s", "alloc_mib", "max_rss_mib", "ops_failed_frac", "steal_frac"} {
		known[n] = true // reported by timed runs, not gated
	}
	for _, w := range workloads {
		known[w.unit+"_per_s"] = true
	}
	for _, p := range doc.Predictions {
		for _, m := range append(append([]string{}, p.Metrics...), p.Moves...) {
			if !known[m] {
				t.Errorf("layers.json: prediction names unknown metric %s", m)
			}
		}
	}
}
