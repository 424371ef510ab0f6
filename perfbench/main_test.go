package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runTiny runs one workload at smoke size and returns its exit code, the
// decoded report line and the decoded result line.
func runTiny(t *testing.T, workload string, trace bool, tamper func([]byte) []byte) (int, map[string]any, result) {
	t.Helper()
	opts := options{
		workload: workload, seed: 7, seconds: 0.05, trace: trace,
		root: "..", spansDir: t.TempDir(), setups: 1, tiny: true, tamper: tamper,
	}
	var stdout, stderr bytes.Buffer
	code := run(opts, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a report and a result line, got %q (stderr %s)", workload, stdout.String(), stderr.String())
	}
	var rep struct {
		Report map[string]any `json:"report"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("%s: report line: %v", workload, err)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	return code, rep.Report, res
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range []string{"improve-gnm", "bound-grid", "cluster-grid", "sweep"} {
		for _, trace := range []bool{false, true} {
			code, rep, res := runTiny(t, w, trace, nil)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v, report %v", w, trace, code, res, rep)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
			for _, k := range []string{"host", "seed", "seed_used", "error_rate"} {
				if _, ok := rep[k]; !ok {
					t.Errorf("%s: report lacks %q", w, k)
				}
			}
			if trace && (w == "improve-gnm" || w == "bound-grid" || w == "cluster-grid") {
				if res.Metrics["mdst.recv_ns_per_msg"].Value <= 0 || res.Metrics["trace.overhead"].Value <= 0 {
					t.Errorf("%s: traced run reported no per-message breakdown: %+v", w, res.Metrics)
				}
			}
		}
	}
}

// flipLastDigit changes one byte of the reference the outputs are checked
// against.
func flipLastDigit(b []byte) []byte {
	b = bytes.Clone(b)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] >= '0' && b[i] <= '9' {
			b[i] = '0' + (b[i]-'0'+1)%10
			return b
		}
	}
	panic("no digit to flip")
}

func TestTamperedReferenceFails(t *testing.T) {
	for _, w := range []string{"improve-gnm", "bound-grid", "cluster-grid", "sweep"} {
		code, rep, res := runTiny(t, w, false, flipLastDigit)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: tampered reference passed: exit %d, result %+v", w, code, res)
		}
		if rate, _ := rep["error_rate"].(map[string]any)["value"].(float64); rate <= 0 {
			t.Errorf("%s: error_rate %v, want > 0", w, rep["error_rate"])
		}
	}
}

func TestSeedReachesGenerator(t *testing.T) {
	msgs := map[float64]bool{}
	for _, seed := range []int64{1, 2, 3} {
		opts := options{workload: "improve-gnm", seed: seed, seconds: 0.01, setups: 1, tiny: true}
		var stdout, stderr bytes.Buffer
		if code := run(opts, &stdout, &stderr); code != 0 {
			t.Fatalf("seed %d: exit %d: %s", seed, code, stderr.String())
		}
		var rep struct {
			Report struct {
				Msgs     float64 `json:"msgs_per_op"`
				SeedUsed bool    `json:"seed_used"`
			} `json:"report"`
		}
		if err := json.Unmarshal([]byte(strings.Split(stdout.String(), "\n")[0]), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Report.SeedUsed {
			t.Fatalf("improve-gnm reports that it ignores the seed")
		}
		msgs[rep.Report.Msgs] = true
	}
	if len(msgs) < 2 {
		t.Errorf("three seeds gave the same message count: the seed does not reach the generator")
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to the ones
// this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", c.what, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", c.what, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
