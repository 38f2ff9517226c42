package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json — what the driver
// reads — in step with the catalogue the program reports from, and inside
// the contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultRunSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultRunSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in params.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in params.go (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
	setup := false
	for _, d := range endToEnd {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for n, bound := range comparedLayer {
		if _, ok := perLayerByName[n]; !ok || bound <= 0 {
			t.Errorf("compared per-layer metric %q is not in the catalogue", n)
		}
	}
}

// TestContractLine checks the result line's shape: exactly the keys the
// contract names, every metric of the run's kind present with its unit.
func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := &outcome{Traced: traced, Correct: true, Attempted: 10, Failed: 1,
			EndToEnd: map[string]float64{"txn_per_s": 1234.5}, PerLayer: map[string]float64{"core.read_ns": 99}}
		var got struct {
			Correct   *bool  `json:"correct"`
			Attempted uint64 `json:"attempted"`
			Failed    uint64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		var keys map[string]json.RawMessage
		line := contractLine(res)
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(line), &keys); err != nil || len(keys) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if got.Correct == nil || !*got.Correct || got.Attempted != 10 || got.Failed != 1 || len(got.Metrics) != len(defs) {
			t.Errorf("traced=%v: %s", traced, line)
		}
		for _, d := range defs {
			if m, ok := got.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or without its unit", traced, d.Name)
			}
		}
	}
}

// TestSelftest proves each workload's output check passes on good output and
// fires on a deliberately dropped update.
func TestSelftest(t *testing.T) {
	if err := selftest(); err != nil {
		t.Fatal(err)
	}
}
