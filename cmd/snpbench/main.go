// Command snpbench regenerates the paper's evaluation tables and
// figures (§VII) on simulated data and prints them in the paper's
// format. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured comparisons.
//
// Usage:
//
//	snpbench -exp all                        # everything, default sizes
//	snpbench -exp table1 -length 1000000     # Table I at 1 Mbp
//	snpbench -exp fig4 -maxnodes 8 -tcp      # Figure 4 over loopback TCP
//	snpbench -exp ablations                  # design-choice ablations
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gnumap/internal/cluster"
	"gnumap/internal/core"
	"gnumap/internal/experiments"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
	"gnumap/internal/snp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snpbench: ")
	var (
		exp        = flag.String("exp", "all", "experiment: table1, table2, table3, fig4, fig5, ablations, sweep, phmm, stream, call, metrics, index, all")
		benchOut   = flag.String("benchout", "BENCH_phmm.json", "output path for the phmm kernel benchmark JSON")
		streamOut  = flag.String("streamout", "BENCH_stream.json", "output path for the streaming pipeline benchmark JSON")
		callOut    = flag.String("callout", "BENCH_call.json", "output path for the parallel post-map phase benchmark JSON")
		indexOut   = flag.String("indexout", "BENCH_index.json", "output path for the large-seed index benchmark JSON")
		seedLen    = flag.Int("seed-len", 20, "large seed length for the index experiment")
		selLength  = flag.Int("sel-length", 0, "selectivity genome length for the index experiment (default 12 Mbp)")
		length     = flag.Int("length", 400_000, "simulated genome length")
		snps       = flag.Int("snps", 0, "planted SNP count (default: paper density, length/10500)")
		coverage   = flag.Float64("coverage", 12, "read coverage")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "shared-memory workers (table1/table3/ablations)")
		maxNodes   = flag.Int("maxnodes", 4, "maximum node count (fig4)")
		maxWorkers = flag.Int("maxworkers", runtime.GOMAXPROCS(0), "maximum worker count (fig5)")
		tcp        = flag.Bool("tcp", false, "use loopback TCP between simulated nodes (fig4)")
		metricsOut = flag.String("metrics-out", "metrics.json", "output path for the metrics experiment's JSON report")
		ckptEvery  = flag.Int64("checkpoint-every", 5000, "checkpoint interval in reads for the stream experiment's stream+ckpt row (0 = skip the row)")
		phmmBatch  = flag.Int("phmm-batch", core.DefaultPhmmBatch, "batched PHMM kernel width for the phmm experiment's engine rows (0 = off, scalar kernel only)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	wants := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wants[strings.TrimSpace(e)] = true
	}
	all := wants["all"]
	needData := all || wants["table1"] || wants["table3"] || wants["fig4"] || wants["fig5"] || wants["ablations"] || wants["sweep"] || wants["phmm"] || wants["stream"] || wants["call"] || wants["metrics"] || wants["index"]

	var ds *experiments.Dataset
	if needData {
		var err error
		ds, err = experiments.MakeDataset(experiments.DataConfig{
			GenomeLength: *length,
			SNPCount:     *snps,
			Coverage:     *coverage,
			Seed:         *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dataset: %d bp genome, %d planted SNPs, %d reads (%gx)\n\n",
			*length, len(ds.Truth), len(ds.Reads), *coverage)
	}

	ran := false
	if all || wants["table1"] {
		runTable1(ds, *workers)
		ran = true
	}
	if all || wants["table2"] {
		runTable2()
		ran = true
	}
	if all || wants["table3"] {
		runTable3(ds, *workers)
		ran = true
	}
	if all || wants["fig4"] {
		transport := cluster.Channels
		if *tcp {
			transport = cluster.TCP
		}
		runFig4(ds, *maxNodes, transport)
		ran = true
	}
	if all || wants["fig5"] {
		runFig5(ds, *maxWorkers)
		ran = true
	}
	if all || wants["ablations"] {
		runAblations(ds, *workers)
		ran = true
	}
	if all || wants["sweep"] {
		runSweep(ds, *workers)
		ran = true
	}
	if all || wants["phmm"] {
		runPhmmBench(ds, *workers, *phmmBatch, *benchOut)
		ran = true
	}
	if all || wants["stream"] {
		runStream(ds, *workers, *ckptEvery, *streamOut)
		ran = true
	}
	if all || wants["call"] {
		runCall(ds, *workers, *callOut)
		ran = true
	}
	if all || wants["metrics"] {
		runMetrics(ds, *metricsOut)
		ran = true
	}
	if all || wants["index"] {
		runIndex(ds, *workers, *seedLen, *selLength, *indexOut)
		ran = true
	}
	if !ran {
		log.Printf("unknown experiment %q", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func runTable1(ds *experiments.Dataset, workers int) {
	fmt.Println("TABLE I — Experimental results for simulated data")
	rows, err := experiments.Table1(ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %10s %7s %7s %7s %10s\n", "Program", "Time", "TP", "FP", "FN", "Precision")
	for _, r := range rows {
		fmt.Printf("%-12s %10s %7d %7d %7d %9.1f%%\n",
			r.Program, r.Wall.Round(msRound(r.Wall)), r.TP, r.FP, r.FN, 100*r.Precision)
	}
	fmt.Println()
}

func runTable2() {
	fmt.Println("TABLE II — Memory usage for optimizations (accumulator state)")
	rows, err := experiments.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %12s %12s %12s\n", "optimization", "bytes/base", "chrX(155Mb)", "human(3.1Gb)")
	for _, r := range rows {
		fmt.Printf("%-12s %12.1f %12s %12s\n",
			r.Mode, r.BytesPerBase, human(r.ChrXBytes), human(r.HumanBytes))
	}
	fmt.Println()
}

func runTable3(ds *experiments.Dataset, workers int) {
	fmt.Println("TABLE III — Memory, wall clock, and accuracy per optimization")
	rows, err := experiments.Table3(ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %12s %10s %7s %7s %10s\n", "Optimization", "MEM", "WT", "TP", "FP", "Precision")
	for _, r := range rows {
		fmt.Printf("%-12s %12s %10s %7d %7d %9.1f%%\n",
			r.Mode, human(r.MemBytes), r.Wall.Round(msRound(r.Wall)), r.TP, r.FP, 100*r.Precision)
	}
	fmt.Println()
}

func runFig4(ds *experiments.Dataset, maxNodes int, transport cluster.TransportKind) {
	fmt.Printf("FIGURE 4 — Sequence processing rate per MPI mode (%s transport)\n", transport)
	points, err := experiments.Fig4(ds, maxNodes, transport)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-14s %14s %14s %10s\n", "nodes", "mode", "measured r/s", "modeled r/s", "speedup")
	base := map[string]float64{}
	for _, p := range points {
		if p.Nodes == 1 {
			base[p.Mode] = p.ModeledRate
		}
		fmt.Printf("%-6d %-14s %14.0f %14.0f %9.2fx\n",
			p.Nodes, p.Mode, p.MeasuredRate, p.ModeledRate, p.ModeledRate/base[p.Mode])
	}
	fmt.Println("(speedup column: modeled critical-path rate vs 1 node; perfect linear = Nx;")
	fmt.Println(" measured rates serialize all node goroutines on a single-CPU host)")
	fmt.Println()
}

func runFig5(ds *experiments.Dataset, maxWorkers int) {
	fmt.Println("FIGURE 5 — Sequences/second per processor count and memory mode")
	points, err := experiments.Fig5(ds, maxWorkers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-10s %14s %14s\n", "workers", "mode", "measured r/s", "modeled r/s")
	for _, p := range points {
		fmt.Printf("%-8d %-10s %14.0f %14.0f\n", p.Workers, p.Mode, p.MeasuredRate, p.ModeledRate)
	}
	fmt.Println("(modeled: single-worker rate × workers — workers share nothing but")
	fmt.Println(" striped accumulator locks; measured rates serialize on a single CPU)")
	fmt.Println()
}

func runAblations(ds *experiments.Dataset, workers int) {
	fmt.Println("ABLATIONS — engine design choices (DESIGN.md §5)")
	rows, err := experiments.Ablations(ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-15s %7s %7s %10s %10s\n", "variant", "TP", "FP", "Precision", "Time")
	for _, r := range rows {
		fmt.Printf("%-15s %7d %7d %9.1f%% %10s\n",
			r.Variant, r.TP, r.FP, 100*r.Precision, r.Wall.Round(msRound(r.Wall)))
	}
	fmt.Println()
}

func runSweep(ds *experiments.Dataset, workers int) {
	fmt.Println("SWEEP — significance cutoff vs accuracy (fixed α/5 cutoff and BH FDR)")
	rows, err := experiments.CutoffSweep(ds, workers, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-8s %7s %7s %11s %12s\n", "alpha", "control", "TP", "FP", "precision", "sensitivity")
	for _, r := range rows {
		control := "fixed"
		if r.FDR {
			control = "BH-FDR"
		}
		fmt.Printf("%-8g %-8s %7d %7d %10.1f%% %11.1f%%\n",
			r.Alpha, control, r.TP, r.FP, 100*r.Precision, 100*r.Sensitivity)
	}
	fmt.Println()
}

// runPhmmBench measures the PHMM kernel variants — scalar and batched,
// the batched rows verified bit-exact against scalar before timing —
// plus end-to-end engine reads/sec, and writes the machine-readable
// BENCH_phmm.json used to track the kernel across PRs.
func runPhmmBench(ds *experiments.Dataset, workers, phmmBatch int, outPath string) {
	fmt.Println("PHMM KERNEL — scalar vs batched wavefront, 62-bp read / 78-bp window")
	rows, err := experiments.PhmmKernelBench()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %6s %6s %8s %12s %10s %10s %7s\n",
		"variant", "band", "batch", "cells", "ns/op", "ns/cell", "Mcells/s", "exact")
	for _, r := range rows {
		exact := "-"
		if r.Exact {
			exact = "yes"
		}
		fmt.Printf("%-20s %6d %6d %8d %12.0f %10.2f %10.1f %7s\n",
			r.Name, r.Band, r.Batch, r.Cells, r.NsPerOp, r.NsPerCell, r.MCellsPerSec, exact)
	}

	var widths []int
	if phmmBatch >= 2 {
		widths = []int{phmmBatch}
	}
	fmt.Printf("\nPHMM ENGINE — end-to-end mapping, %d reads, workers=%d\n", len(ds.Reads), workers)
	engineRows, err := experiments.PhmmEngineBench(ds, workers, widths)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %8s %8s %10s %12s\n", "config", "mapped", "locs", "wall", "reads/sec")
	for _, r := range engineRows {
		wall := time.Duration(r.WallNs)
		fmt.Printf("%-16s %8d %8d %10s %12.0f\n",
			r.Name, r.Mapped, r.Locations, wall.Round(msRound(wall)), r.ReadsPerSec)
	}

	report := struct {
		Generated  string                           `json:"generated"`
		GoOS       string                           `json:"goos"`
		GoArch     string                           `json:"goarch"`
		Input      string                           `json:"input"`
		Rows       []experiments.PhmmBenchRow       `json:"rows"`
		EngineRows []experiments.PhmmEngineBenchRow `json:"engine_rows"`
	}{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Input:      fmt.Sprintf("62bp read vs 78bp window, diag 8; engine: %d reads, workers=%d", len(ds.Reads), workers),
		Rows:       rows,
		EngineRows: engineRows,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n\n", outPath)
}

// runIndex compares the k=10 direct table against the SNAP-style
// large-seed index (candidate selectivity, throughput, accuracy) plus
// the mmap persistence leg, writing BENCH_index.json for the CI gate.
func runIndex(ds *experiments.Dataset, workers, seedLen, selLength int, outPath string) {
	fmt.Printf("INDEX — k=10 direct table vs s=%d large-seed index\n", seedLen)
	rep, err := experiments.IndexBench(ds, experiments.IndexBenchConfig{
		Workers: workers, LargeSeedLen: seedLen, SelGenomeLen: selLength,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %5s %8s %10s %10s %9s %9s %12s %7s %7s %10s %10s\n",
		"dataset", "k", "reads", "hits/rd", "cand/rd", "align/rd", "build", "reads/sec", "TP", "FP", "precision", "recall")
	for _, r := range rep.Rows {
		fmt.Printf("%-20s %5d %8d %10.1f %10.2f %9.2f %8.2fs %12.0f %7d %7d %9.1f%% %9.1f%%\n",
			r.Dataset, r.SeedLen, r.Reads, r.SeedHitsPerRead, r.CandidatesPerRead,
			r.AlignmentsPerRead, r.BuildSeconds, r.ReadsPerSec,
			r.TP, r.FP, 100*r.Precision, 100*r.Recall)
	}
	p := rep.Persist
	fmt.Printf("\nPERSIST — s=%d over %d bp: %s file, build %.2fs, write %.3fs, mmap load %.6fs (%.0fx), vcf identical: %v\n",
		p.SeedLen, p.GenomeLen, human(p.FileBytes), p.BuildSeconds, p.WriteSeconds,
		p.LoadSeconds, p.LoadSpeedup, p.VCFIdentical)
	report := struct {
		Generated string                      `json:"generated"`
		GoOS      string                      `json:"goos"`
		GoArch    string                      `json:"goarch"`
		Input     string                      `json:"input"`
		Rows      []experiments.IndexBenchRow `json:"rows"`
		Persist   experiments.IndexPersistRow `json:"persist"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		Input:     fmt.Sprintf("accuracy: %d reads on %d bp; workers=%d", len(ds.Reads), ds.Ref.Len(), workers),
		Rows:      rep.Rows,
		Persist:   rep.Persist,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n\n", outPath)
}

// human renders bytes in the paper's "4.76g" style.
func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fg", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fm", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fk", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%db", b)
	}
}

// msRound picks a display rounding that keeps 3+ significant digits.
func msRound(d time.Duration) time.Duration {
	switch {
	case d >= time.Minute:
		return time.Second
	case d >= time.Second:
		return 10 * time.Millisecond
	default:
		return time.Millisecond
	}
}

// runStream measures streamed against materialized input on the same
// on-disk FASTQ, both through the one bounded mapping pipeline — plus
// rows with durable checkpoints and with incremental calling every
// ckptEvery reads — and writes the machine-readable
// BENCH_stream.json (reads/sec, sampled peak heap as the RSS proxy,
// the pipeline's resident-reads high-water mark, and the checkpoint
// overhead fraction).
func runStream(ds *experiments.Dataset, workers int, ckptEvery int64, outPath string) {
	fmt.Println("STREAM — streamed vs materialized input, one bounded pipeline, same FASTQ")
	const (
		batch = 64
		queue = 4
	)
	rows, err := experiments.StreamBench(ds, workers, batch, queue, ckptEvery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %8s %10s %12s %14s %14s %11s %11s\n", "path", "reads", "wall", "reads/sec", "peak heap", "peak resident", "ckpt stall", "first call")
	for _, r := range rows {
		resident := "all"
		if r.PeakResidentReads > 0 {
			resident = fmt.Sprintf("%d reads", r.PeakResidentReads)
		}
		stall := "-"
		if r.CkptWrites > 0 {
			stall = fmt.Sprintf("%.1f%%", 100*r.CkptStallFrac)
		}
		firstCall := "-"
		if r.CallFirstSeconds > 0 {
			firstCall = fmt.Sprintf("%.2fs", r.CallFirstSeconds)
		}
		wall := time.Duration(r.WallNs)
		fmt.Printf("%-12s %8d %10s %12.0f %14s %14s %11s %11s\n",
			r.Path, r.Reads, wall.Round(msRound(wall)), r.ReadsPerSec, human(int64(r.PeakHeapBytes)), resident, stall, firstCall)
	}
	report := struct {
		Generated string                       `json:"generated"`
		GoOS      string                       `json:"goos"`
		GoArch    string                       `json:"goarch"`
		Input     string                       `json:"input"`
		Rows      []experiments.StreamBenchRow `json:"rows"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		Input:     fmt.Sprintf("%d reads, workers=%d batch=%d queue=%d", rows[0].Reads, workers, batch, queue),
		Rows:      rows,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n\n", outPath)
}

// runCall measures the parallel post-map phase: the chunked LRT calling
// sweep at 1/2/4/8 workers (asserting the call set never changes) and
// AddRange throughput under striped vs sharded accumulation, writing
// the machine-readable BENCH_call.json. CallBench raises GOMAXPROCS to
// the sweep maximum before timing — inheriting GOMAXPROCS=1 while
// sweeping 1..8 workers was a bug that flattened every measured speedup
// to ~1 — and stamps the effective value on each row. The modeled
// column projects the measured serial fraction onto a host with that
// many cores (Fig4/Fig5 convention); modeled-host caps that projection
// at the CPUs actually present, which is what the measured column
// should track.
func runCall(ds *experiments.Dataset, workers int, outPath string) {
	callRows, screenRows, accumRows, err := experiments.CallBench(ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CALL — scalar vs vectorized calling sweep + accumulation strategies (GOMAXPROCS=%d, NumCPU=%d, kernel=%s)\n",
		callRows[0].GoMaxProcs, callRows[0].NumCPU, snp.VectorKernel())
	fmt.Printf("%-7s %-8s %-8s %6s %10s %12s %8s %8s %9s %9s %9s %10s\n",
		"sweep", "kernel", "workers", "procs", "wall", "pos/sec", "calls", "tested", "measured", "modeled", "host", "identical")
	for _, r := range callRows {
		wall := time.Duration(r.WallNs)
		fmt.Printf("%-7s %-8s %-8d %6d %10s %12.0f %8d %8d %8.2fx %8.2fx %8.2fx %10v\n",
			r.Sweep, r.VectorKernel, r.Workers, r.GoMaxProcs, wall.Round(msRound(wall)), r.PosPerSec, r.Calls, r.Tested,
			r.MeasuredSpeedup, r.ModeledSpeedup, r.ModeledSpeedupHost, r.Identical)
	}
	fmt.Printf("%-7s %-8s %10s %12s\n", "sweep", "kernel", "wall", "ns/pos")
	for _, r := range screenRows {
		wall := time.Duration(r.WallNs)
		fmt.Printf("%-7s %-8s %10s %12.2f\n", r.Sweep, r.VectorKernel, wall.Round(msRound(wall)), r.NsPerPos)
	}
	fmt.Printf("%-8s %11s %10s %12s %12s\n", "strategy", "goroutines", "wall", "adds/sec", "merge")
	for _, r := range accumRows {
		wall := time.Duration(r.WallNs)
		fmt.Printf("%-8s %11d %10s %12.0f %12s\n",
			r.Strategy, r.Goroutines, wall.Round(msRound(wall)), r.AddsPerSec,
			time.Duration(r.MergeNs).Round(time.Microsecond))
	}
	report := struct {
		Generated    string                       `json:"generated"`
		GoOS         string                       `json:"goos"`
		GoArch       string                       `json:"goarch"`
		GoMaxProcs   int                          `json:"gomaxprocs"`
		NumCPU       int                          `json:"numcpu"`
		VectorKernel string                       `json:"vector_kernel"`
		Input        string                       `json:"input"`
		CallRows     []experiments.CallBenchRow   `json:"call_rows"`
		ScreenRows   []experiments.ScreenBenchRow `json:"screen_rows"`
		AccumRows    []experiments.AccumBenchRow  `json:"accum_rows"`
	}{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		GoOS:         runtime.GOOS,
		GoArch:       runtime.GOARCH,
		GoMaxProcs:   callRows[0].GoMaxProcs,
		NumCPU:       callRows[0].NumCPU,
		VectorKernel: snp.VectorKernel(),
		Input:        fmt.Sprintf("%d positions, %d reads, map workers=%d", ds.Ref.Len(), len(ds.Reads), workers),
		CallRows:     callRows,
		ScreenRows:   screenRows,
		AccumRows:    accumRows,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n\n", outPath)
}

// runMetrics is the observability smoke: a 2-node read-split run with
// per-rank registries, gathered and merged at rank 0, written as JSON,
// then read back and schema-checked. Exits non-zero on any failure so
// CI can gate on it.
func runMetrics(ds *experiments.Dataset, outPath string) {
	fmt.Println("METRICS — 2-node read-split with per-rank aggregation")
	var snaps []obs.Snapshot
	err := cluster.RunWithConfig(2, cluster.RunConfig{Kind: cluster.Channels}, func(c *cluster.Comm) error {
		reg := obs.NewRegistry()
		c.SetMetrics(reg)
		if _, _, err := core.RunReadSplit(c, ds.Ref, ds.Reads, genome.Norm, core.Config{Workers: 1, Metrics: reg}); err != nil {
			return err
		}
		c.PublishStats()
		got, _, err := core.GatherMetrics(c, reg.Snapshot(c.Rank()))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			snaps = got
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := obs.NewReport(snaps, nil)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	// Round-trip: what landed on disk must parse and reconcile.
	data, err := os.ReadFile(outPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.ValidateReportJSON(data); err != nil {
		log.Fatalf("metrics report failed validation: %v", err)
	}
	if err := report.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d rank snapshots, schema OK)\n\n", outPath, len(report.Ranks))
}
