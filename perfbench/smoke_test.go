package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the sock workload re-execute the test binary as its rank
// processes.
func TestMain(m *testing.M) {
	if childMain() {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// smokeSized shrinks a workload to a few epochs and the fewest worlds a
// traced run needs (one untraced, one traced); the data sizes stay.
func smokeSized(bw benchWorkload) benchWorkload {
	bw.Epochs = min(bw.Epochs, 3)
	bw.Reads = min(bw.Reads, 50)
	bw.MinWorlds = 2
	return bw
}

// TestSmoke runs every workload untraced and traced and checks that the
// result line carries exactly the metrics BENCHMARK.json names, each
// finite, with its unit, also printed as a text line, and that no
// consumer read failed validation. With -short the workloads run a few
// epochs each; without it they run at full length.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(listed, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", listed, workloadNames)
	}

	for _, name := range workloadNames {
		bw := workloads()[name]
		if testing.Short() {
			bw = smokeSized(bw)
		}
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				var out, errOut bytes.Buffer
				o := options{workload: name, seed: 1, trace: traced, out: t.TempDir()}
				if code := bench(bw, o, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				checkResult(t, out.String(), want, traced)
			})
		}
	}
}

func checkResult(t *testing.T, out string, want []namedUnit, traced bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 3 && !strings.HasPrefix(l, "#") {
			printed[f[0]] = f[2]
		}
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing from the result", w.Name)
		case m.Unit != w.Unit || m.Unit == "":
			t.Errorf("metric %s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		case printed[w.Name] != w.Unit:
			t.Errorf("metric %s not printed with its unit (got %q)", w.Name, printed[w.Name])
		}
	}
	if fr, ok := res.Metrics["failed_ratio"]; traced && (!ok || fr.Value != 0) {
		t.Errorf("failed_ratio = %v", fr.Value)
	}
}
