package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// fails unless its outputs verify and it prints exactly the metric names
// and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	declared := func(trace bool) map[string]string {
		out := map[string]string{}
		list := bf.EndToEnd
		if trace {
			list = bf.PerLayer
		}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if strings.Join(names, ",") != strings.Join(known, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "eccheckd")
	if out, err := exec.Command("go", "build", "-o", bin, "eccheck/cmd/eccheckd").CombinedOutput(); err != nil {
		t.Fatalf("build eccheckd: %v\n%s", err, out)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.4, trace: trace, tiny: true,
				outDir: filepath.Join(dir, "trace"), eccheckd: bin}
			res, info, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			if err := emit(&buf, res, info); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", name, trace, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Fatalf("%s trace=%v: last line keys %v", name, trace, keys(last))
			}
			var printed result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
				t.Fatal(err)
			}
			if !printed.Correct || printed.Failed != 0 || printed.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", name, trace,
					printed.Correct, printed.Attempted, printed.Failed, info["failures"])
			}
			want := declared(trace)
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", name, trace, len(printed.Metrics), len(want))
			}
			for n, m := range printed.Metrics {
				if unit, ok := want[n]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: printed %s [%s], declared unit %q (declared=%v)", name, trace, n, m.Unit, unit, ok)
				}
			}
			if !trace {
				for n, m := range printed.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, n)
					}
				}
			} else if p, _ := info["trace_file"].(string); p == "" {
				t.Errorf("%s: traced run wrote no trace file", name)
			} else if tr, err := os.ReadFile(p); err != nil {
				t.Error(err)
			} else {
				var tf traceFile
				if err := json.Unmarshal(tr, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Errorf("%s: trace file is not a non-empty trace_event document: %v", name, err)
				}
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
