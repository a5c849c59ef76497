// Command perfbench is gnumap-snp's FASTQ→VCF benchmark. For one named
// workload it simulates the inputs from a seed, runs the real
// gnumap-snp binary on them in fresh processes for a fixed time, checks
// every VCF against the truth catalog, and prints one JSON result line.
// With -trace 1 it instead charges the wall time to the repository's
// layers: one traced run with spans around the public calls into each
// layer, plus metrics-on and metrics-off CLI runs.
//
// Run it from the repository root through run.sh, which builds both
// binaries from the checkout:
//
//	bash perfbench/run.sh --workload repeat-2mb --seed 1 --seconds 30 --trace 0
//
// NOTES.md explains the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gnumap/internal/obs"
)

func main() {
	var err error
	if role := os.Getenv(childEnv); role != "" {
		err = childMain(role, os.Args[1:])
	} else {
		err = run(os.Args[1:], os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childEnv names the role of a re-executed harness process. Input
// generation and the traced run each get a fresh process: the traced
// run so that it starts cold like the timed runs, and generation so
// that the harness itself stays small. A child's peak RSS as reported
// by wait4 is at least its parent's high-water mark at fork time, so a
// harness that had simulated the reads in-process would inflate every
// pipeline's peak_rss_mb.
const childEnv = "PERFBENCH_CHILD"

func childMain(role string, args []string) error {
	switch role {
	case "generate":
		return generateMain(args)
	case "trace":
		return tracedMain(args)
	}
	return fmt.Errorf("unknown %s role %q", childEnv, role)
}

// runSelf re-executes this binary in a role and waits for it.
func runSelf(role string, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s process: %w", role, err)
	}
	return nil
}

// bench is one invocation: a workload, its generated inputs, and the
// tally of every pipeline run made on them.
type bench struct {
	w       workload
	in      inputs
	truth   map[int]string
	seed    int64
	scale   float64
	bin     string
	workDir string
	stderr  io.Writer
	srcTag  string
	// callSets holds, per read set, the call set every run on it must
	// reproduce. It is persisted under workDir/callsets keyed by the
	// source digest, so later invocations on the same code are checked
	// against the first one too.
	callSets map[int]string
	// pooled sums accuracy over the first run on each read set.
	pooled score
	scored map[int]bool

	attempted, failed int64
	runs              int
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see NOTES.md)")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 30, "measurement time per invocation")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	bin := fs.String("bin", ".bench_build/bin/gnumap-snp", "gnumap-snp binary built from this checkout")
	workDir := fs.String("workdir", ".bench_build", "directory for inputs, outputs and records")
	root := fs.String("root", ".", "repository root, hashed into the result stamp")
	scale := fs.Float64("scale", 1, "genome-length scale (the self-tests shrink workloads; results are recorded at 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err := checkHost(w); err != nil {
		return fmt.Errorf("refusing to record: %w", err)
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("gnumap-snp binary: %w", err)
	}
	in, err := generateInChild(w, *seed, *scale, filepath.Join(*workDir, "work", w.Name))
	if err != nil {
		return err
	}
	hs, err := stampHost(w, *seed, *scale, in, *root)
	if err != nil {
		return err
	}
	hdr, err := json.Marshal(hs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", hdr)
	truth, err := loadTruth(in.Truth)
	if err != nil {
		return err
	}
	b := &bench{
		w: w, in: in, truth: truth, seed: *seed, scale: *scale, bin: *bin, workDir: *workDir, stderr: stderr,
		srcTag: hs.SourceSHA256[:16], callSets: map[int]string{}, scored: map[int]bool{},
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var vals map[string]float64
	var defs []metricDef
	var extra any
	if *trace == 1 {
		defs = perLayer
		vals, extra = b.traced(budget)
	} else {
		defs = endToEnd
		vals = b.timed(budget)
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if res.Metrics, err = fill(defs, vals); err != nil {
		if b.failed == 0 {
			return err
		}
		// Failed runs leave metrics unmeasured; the result still goes
		// out, marked incorrect, with those metrics at zero.
		res.Metrics = map[string]metricValue{}
		for _, d := range defs {
			res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
	}
	if err := b.record(*trace, hs, res, extra); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// timed runs the CLI, untraced with metrics off, on the read sets in
// turn: each one once, then more while the budget lasts. Timings are
// medians over runs; accuracy is pooled over the read sets.
func (b *bench) timed(budget time.Duration) map[string]float64 {
	var walls, setups, rps, cpu, rss, mapped []float64
	for t0, last := time.Now(), time.Duration(0); b.runs < readSets || fits(t0, last, budget); {
		start := time.Now()
		r, ok := b.cli(b.runs%readSets, "", "")
		last = time.Since(start)
		if !ok {
			continue
		}
		n := float64(b.in.NumReads)
		walls = append(walls, r.Wall)
		setups = append(setups, r.Setup)
		rps = append(rps, n/(r.Wall-r.Setup))
		cpu = append(cpu, r.CPU*1000/n)
		rss = append(rss, r.RSSMB)
		mapped = append(mapped, float64(r.Mapped)/n)
	}
	vals := map[string]float64{}
	if len(walls) > 0 {
		vals["wall_s"] = median(walls)
		vals["setup_s"] = median(setups)
		vals["reads_per_s"] = median(rps)
		vals["cpu_s_per_kread"] = median(cpu)
		vals["peak_rss_mb"] = median(rss)
		vals["precision"] = b.pooled.precision()
		vals["recall"] = b.pooled.recall()
		vals["mapped_frac"] = median(mapped)
	}
	return vals
}

// traced makes the traced run on the first read set, then alternates
// metrics-off and metrics-on CLI runs (a pair per read set, in turn)
// until the budget is spent, and reports every per-layer metric. The
// second result is the traced run's record.
func (b *bench) traced(budget time.Duration) (map[string]float64, any) {
	t0 := time.Now()
	outDir := filepath.Join(b.workDir, "trace", b.w.Name)
	vals := map[string]float64{}
	var tr traceResult
	b.attempted += b.in.NumReads
	b.runs++
	err := os.MkdirAll(outDir, 0o755)
	if err == nil {
		tr, err = runTraced(b.w, b.in.Ref, b.in.Reads[0], outDir)
	}
	if err == nil {
		_, err = b.check(0, tr.VCFPath, tr.MappedReads, tr.Reads)
	}
	if err == nil {
		if cov := tr.Layers["trace.coverage_frac"]; cov < 0.95 {
			err = fmt.Errorf("phase spans cover %.3f of the traced wall time, want >= 0.95", cov)
		}
	}
	if err != nil {
		b.fail("traced run", err)
	} else {
		for k, v := range tr.Layers {
			vals[k] = v
		}
		fmt.Fprintf(b.stderr, "traced run: wall %.3f s, %d spans, coverage %.4f, replay drift %g\n",
			tr.WallS, tr.Spans, tr.Layers["trace.coverage_frac"], tr.Layers["trace.replay_count_drift"])
		printLedger(b.stderr, tr.Ledger)
	}
	var off, on []float64
	comm := map[string][]float64{}
	metricsPath := filepath.Join(b.in.Dir, "metrics.json")
	// At least one pair, unless runs are failing and the budget is gone.
	var last time.Duration
	for pair := 0; fits(t0, last, budget) || (len(off) == 0 || len(on) == 0) && b.failed == 0; pair++ {
		start := time.Now()
		set := pair % readSets
		if r, ok := b.cli(set, "", "off"); ok {
			off = append(off, r.Wall)
		}
		r, ok := b.cli(set, metricsPath, "on")
		last = time.Since(start)
		if !ok {
			continue
		}
		c, err := clusterMetrics(metricsPath)
		if err != nil {
			b.fail("metrics report", err)
			continue
		}
		on = append(on, r.Wall)
		for k, v := range c {
			comm[k] = append(comm[k], v)
		}
	}
	if len(off) > 0 && len(on) > 0 {
		base := median(off)
		vals["obs.metrics_overhead_frac"] = (median(on) - base) / base
		for k, vs := range comm {
			vals[k] = median(vs)
		}
		if tr.WallS > 0 {
			vals["trace.overhead_frac"] = (tr.WallS - base) / base
		}
	}
	return vals, tr
}

// fits reports whether another step as long as the last one still
// ends within the budget, so an invocation measures for about its
// budget instead of overrunning it by up to one step.
func fits(t0 time.Time, last, budget time.Duration) bool {
	return time.Since(t0)+last <= budget
}

// cli makes one CLI run on a read set, and its output check. A run
// that fails either counts every one of its reads as failed.
func (b *bench) cli(set int, metricsPath, label string) (cliRun, bool) {
	b.runs++
	b.attempted += b.in.NumReads
	vcf := filepath.Join(b.in.Dir, "out.vcf")
	r, err := runCLI(b.bin, b.w, b.in.Ref, b.in.Reads[set], vcf, metricsPath)
	var s score
	if err == nil {
		s, err = b.check(set, vcf, r.Mapped, r.Total)
	}
	if err != nil {
		b.fail(fmt.Sprintf("run %d", b.runs), err)
		return r, false
	}
	fmt.Fprintf(b.stderr, "run %d %s reads%d: wall %.3f s, setup %.3f s, cpu %.2f s, rss %.1f MB, TP %d FP %d FN %d\n",
		b.runs, label, set, r.Wall, r.Setup, r.CPU, r.RSSMB, s.TP, s.FP, s.FN)
	return r, true
}

func (b *bench) fail(what string, err error) {
	b.failed += b.in.NumReads
	fmt.Fprintf(b.stderr, "%s FAILED: %v\n", what, err)
}

// check is the output check every run passes: every input read was
// consumed, the VCF parses and meets the workload's accuracy floors,
// and its call set is the one every other run on this read set and
// code made. The first passing run on each read set joins the pooled
// accuracy.
func (b *bench) check(set int, vcf string, mapped, total int64) (score, error) {
	if total != b.in.NumReads {
		return score{}, fmt.Errorf("pipeline consumed %d reads, input has %d", total, b.in.NumReads)
	}
	if mapped < 1 || mapped > total {
		return score{}, fmt.Errorf("%d of %d reads mapped", mapped, total)
	}
	s, err := scoreVCF(vcf, b.truth)
	if err != nil {
		return s, err
	}
	if p := s.precision(); p < b.w.MinPrecision {
		return s, fmt.Errorf("precision %.4f below the floor %.2f", p, b.w.MinPrecision)
	}
	if r := s.recall(); r < b.w.MinRecall {
		return s, fmt.Errorf("recall %.4f below the floor %.2f", r, b.w.MinRecall)
	}
	want, err := b.callSet(set, s.CallSet)
	if err != nil {
		return s, err
	}
	if s.CallSet != want {
		return s, fmt.Errorf("call set %s differs from %s, made earlier on the same code and reads", s.CallSet[:16], want[:16])
	}
	if !b.scored[set] {
		b.scored[set] = true
		b.pooled.TP += s.TP
		b.pooled.FP += s.FP
		b.pooled.FN += s.FN
	}
	return s, nil
}

// callSet returns the call set recorded for a read set, recording got
// if this is the first run on it.
func (b *bench) callSet(set int, got string) (string, error) {
	if cs, ok := b.callSets[set]; ok {
		return cs, nil
	}
	path := filepath.Join(b.workDir, "callsets",
		fmt.Sprintf("%s-seed%d-reads%d-scale%g-%s.sha256", b.w.Name, b.seed, set, b.scale, b.srcTag))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		b.callSets[set] = strings.TrimSpace(string(prev))
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return "", err
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			return "", err
		}
		b.callSets[set] = got
	default:
		return "", err
	}
	return b.callSets[set], nil
}

// clusterMetrics reads the communication totals of a -metrics-out
// report: the slowest rank's reduce-tree time, bytes and messages sent,
// and the time ranks spent waiting in receives. A single-process report
// has no communication, and reads as zeros.
func clusterMetrics(path string) (map[string]float64, error) {
	var rep obs.Report
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var reduce float64
	for _, r := range rep.Ranks {
		reduce = max(reduce, r.Histograms["comm.coll.reduce-tree.seconds"].Sum)
	}
	m := rep.Merged
	return map[string]float64{
		"cluster.reduce_s":    reduce,
		"cluster.bytes_sent":  float64(m.Counters["comm.send.bytes"]),
		"cluster.msgs_sent":   float64(m.Counters["comm.send.count"]),
		"cluster.recv_wait_s": m.Histograms["comm.recv.seconds"].Sum,
	}, nil
}

func printLedger(w io.Writer, rows []ledgerRow) {
	fmt.Fprintf(w, "%-24s %10s %10s %10s %12s\n", "span", "count", "total_s", "self_s", "ns/read")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %10d %10.4f %10.4f %12.0f\n", r.Name, r.Count, r.TotalS, r.SelfS, r.PerRead)
	}
}

// record keeps the stamped result, and the traced run's ledger, in
// workdir/results.
func (b *bench) record(trace int, hs host, res result, extra any) error {
	dir := filepath.Join(b.workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"host": hs, "result": res, "trace": extra}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.w.Name, b.seed, trace)), data, 0o644)
}
