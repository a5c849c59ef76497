package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the tiny-scale runs re-execute it as a generating or traced process.
func TestMain(m *testing.M) {
	if role := os.Getenv(childEnv); role != "" {
		if err := childMain(role, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRule = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON validates BENCHMARK.json against its schema and
// name rules, and checks that it lists exactly the workloads and
// metrics this harness measures.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "BENCHMARK.json", raw, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	for _, list := range []string{"workloads", "end_to_end", "per_layer"} {
		var entries []map[string]json.RawMessage
		if err := json.Unmarshal(raw[list], &entries); err != nil {
			t.Fatalf("%s: %v", list, err)
		}
		want := map[string][]string{
			"workloads":  {"name", "why"},
			"end_to_end": {"name", "unit", "better", "bound"},
			"per_layer":  {"name", "unit", "better"},
		}[list]
		for i, e := range entries {
			checkKeys(t, fmt.Sprintf("%s[%d]", list, i), e, want...)
		}
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	for _, c := range bf.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(bf.Paths) < 1 || len(bf.Paths) > 16 {
		t.Errorf("%d paths", len(bf.Paths))
	}
	for _, p := range bf.Paths {
		if !pathRule.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	useName := func(name string) {
		if !nameRule.MatchString(name) {
			t.Errorf("name %q breaks the name rules", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var wnames []string
	for _, w := range bf.Workloads {
		useName(w.Name)
		wnames = append(wnames, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is not in the harness", w.Name)
		}
	}
	if len(wnames) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the harness has %d workloads", wnames, len(workloads))
	}
	var e2e, layers []metricDef
	setup := false
	for _, m := range bf.EndToEnd {
		useName(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in s with better=lower")
	}
	for _, m := range bf.PerLayer {
		useName(m.Name)
		layers = append(layers, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range append(append([]metricDef(nil), e2e...), layers...) {
		if !unitRule.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit rules", m.Name, m.Unit)
		}
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", layers, perLayer)
}

func checkKeys(t *testing.T, what string, obj map[string]json.RawMessage, keys ...string) {
	t.Helper()
	if len(obj) != len(keys) {
		t.Errorf("%s has %d keys, want exactly %v", what, len(obj), keys)
	}
	for _, k := range keys {
		if _, ok := obj[k]; !ok {
			t.Errorf("%s lacks key %q", what, k)
		}
	}
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s in BENCHMARK.json\n  %v\nharness measures\n  %v", what, got, want)
	}
}

// TestWorkloadsTinyScale runs every workload end to end at a tenth of
// its genome length, in both modes, and validates the result line.
func TestWorkloadsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gnumap-snp and runs every workload")
	}
	if runtime.GOOS != "linux" {
		t.Skip("set-up time is observed through /proc")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "gnumap/cmd/gnumap-snp")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build gnumap-snp: %v\n%s", err, out)
	}
	bin := filepath.Join(dir, "gnumap-snp")
	for _, w := range workloads {
		if checkHost(w) != nil {
			t.Logf("%s: host too small, skipped", w.Name)
			continue
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				err := run([]string{
					"-workload", w.Name, "-seed", "7", "-seconds", "0.1", "-trace", fmt.Sprint(trace),
					"-bin", bin, "-workdir", filepath.Join(dir, "work"), "-root", "..", "-scale", "0.1",
				}, &stdout, &stderr)
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if !strings.HasPrefix(lines[0], "host {") {
					t.Errorf("first line is not the host stamp: %q", lines[0])
				}
				checkResultLine(t, lines[len(lines)-1], defs)
				if t.Failed() {
					t.Log(stderr.String())
				}
			})
		}
	}
}

// checkResultLine validates the result schema: exactly the four keys,
// a correct run with no failed reads, and every metric of defs with its
// unit and a finite value.
func checkResultLine(t *testing.T, line string, defs []metricDef) {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, line)
	}
	checkKeys(t, "result", raw, "correct", "attempted", "failed", "metrics")
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		checkKeys(t, d.Name, metrics[d.Name], "value", "unit")
		if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v %s, want a finite value in %s", d.Name, m.Value, m.Unit, d.Unit)
		}
	}
}

// TestRefusesTimesharedHost checks the host stamp's refusal rules.
func TestRefusesTimesharedHost(t *testing.T) {
	w, _ := findWorkload("repeat-2mb")
	big := w
	big.Workers = runtime.NumCPU() + 1
	if checkHost(big) == nil {
		t.Error("accepted more workers than CPUs")
	}
	t.Setenv("GOMAXPROCS", "1")
	if checkHost(w) == nil {
		t.Error("accepted GOMAXPROCS below the worker count")
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := covered(iv, 0, 25); got != 3+7+5 {
		t.Errorf("covered = %d, want 15", got)
	}
	spans := []span{
		{ID: 1, Name: "map", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "seed", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "seed", Start: 20, End: 40},
	}
	rows := ledger(spans, 0)
	if rows[0].SelfS != 70e-9 || rows[1].SelfS != 40e-9 {
		t.Errorf("self times %v", rows)
	}
}

func TestScoreVCF(t *testing.T) {
	vcf := filepath.Join(t.TempDir(), "x.vcf")
	body := "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n" +
		"sim\t11\t.\tA\tG\t50\tPASS\tDP=3\n" + // true positive
		"sim\t21\t.\tC\tT\t50\tPASS\tDP=3\n" + // wrong allele
		"sim\t31\t.\tG\tA,C\t50\tPASS\tDP=3\n" // not planted
	if err := os.WriteFile(vcf, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := scoreVCF(vcf, map[int]string{10: "G", 20: "A", 40: "T"})
	if err != nil {
		t.Fatal(err)
	}
	if s.TP != 1 || s.FP != 2 || s.FN != 2 {
		t.Errorf("TP %d FP %d FN %d, want 1 2 2", s.TP, s.FP, s.FN)
	}
	if err := os.WriteFile(vcf, []byte("sim\t1\t.\tA\tG\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scoreVCF(vcf, nil); err == nil {
		t.Error("accepted a VCF without a header")
	}
}

func TestDrift(t *testing.T) {
	p := replayCounts{Candidates: 100, Alignments: 50, Cells: 800, Locations: 50}
	if d := drift(p, p); d != 0 {
		t.Errorf("drift of identical counts = %v", d)
	}
	r := p
	r.Cells += 100
	if d := drift(r, p); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("drift = %v, want 0.1", d)
	}
}
