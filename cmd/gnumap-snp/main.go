// Command gnumap-snp maps FASTQ reads to a FASTA reference with the
// probabilistic Pair-HMM engine and calls SNPs with the likelihood
// ratio test, writing VCF to stdout or a file.
//
// Usage:
//
//	gnumap-snp -ref reference.fa -reads reads.fq -o calls.vcf \
//	    [-diploid] [-alpha 0.05] [-fdr] [-memory norm|chardisc|centdisc] \
//	    [-workers N] [-accum-mode auto|striped|sharded] [-call-workers N] \
//	    [-batch 64] [-queue 4] \
//	    [-incremental-every 5000] \
//	    [-nodes N -split read|genome [-tcp]] \
//	    [-op-timeout 5s] [-heartbeat 100ms] [-chaos seed=42,drop=0.01] \
//	    [-metrics-out metrics.json] [-pprof localhost:6060] \
//	    [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -nodes > 1 the run executes on a simulated message-passing
// cluster (goroutine nodes; -tcp switches to loopback TCP), using the
// paper's read-split or genome-split strategy. -op-timeout bounds every
// cluster operation (and, in read-split mode, enables shard
// reassignment when a worker dies); -heartbeat tunes failure detection;
// -chaos injects deterministic faults for resilience testing.
//
// Observability: -metrics-out writes the run's merged metrics report
// (per-rank stage timers, counters, and communication gauges) as JSON
// and prints a human summary to stderr; -pprof serves net/http/pprof
// on the given address for live inspection; -cpuprofile/-memprofile
// write standard runtime profiles for `go tool pprof`.
//
// Crash safety: -checkpoint FILE makes the streaming run write its full
// state (config fingerprint, source watermark, mapping counters,
// accumulator) atomically to FILE every -checkpoint-every reads (an
// integer) or wall time (a duration like 30s). -resume loads FILE if it
// exists, skips the already-mapped prefix of the FASTQ, and continues —
// so a supervisor can relaunch the same command line after a crash or a
// kill and the final VCF matches an uninterrupted run. SIGINT/SIGTERM
// trigger a graceful stop: drain the pipeline, write a final
// checkpoint, flush -metrics-out, exit with code 3 (a second signal
// aborts immediately). Checkpointing needs the FASTQ streamed, not
// loaded: it is incompatible with -fit/-sam (which load the reads for
// random access), and on clusters with -split genome, -op-timeout, and
// -chaos.
//
// Incremental calling: -incremental-every N overlaps SNP calling with
// single-process mapping of the streamed FASTQ — every N reads the
// pipeline quiesces, only the genome regions written since the last
// barrier are re-swept, and a provisional call set is produced; the
// final VCF comes from the last incremental sweep and matches the
// post-map sweep of an ordinary run. The first-provisional-call time is
// reported on stderr. Incompatible with -fit/-sam, with -checkpoint
// (both own the quiesce cadence), and with clusters.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"gnumap"
)

// stopExitCode distinguishes "stopped gracefully, state checkpointed"
// from success (0) and failure (1): the job is incomplete but cleanly
// resumable with -resume.
const stopExitCode = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("gnumap-snp: ")
	if err := run(); err != nil {
		if errors.Is(err, gnumap.ErrStopped) {
			log.Print(err)
			os.Exit(stopExitCode)
		}
		log.Fatal(err)
	}
}

func run() error {
	var (
		refPath    = flag.String("ref", "", "reference FASTA (required)")
		readsPath  = flag.String("reads", "", "reads FASTQ (required)")
		outPath    = flag.String("o", "", "output VCF (default stdout)")
		phred64    = flag.Bool("phred64", false, "reads use Phred+64 qualities")
		diploid    = flag.Bool("diploid", false, "use the diploid LRT (heterozygous calls)")
		alpha      = flag.Float64("alpha", 0.05, "family-wise significance level")
		fdr        = flag.Bool("fdr", false, "Benjamini-Hochberg FDR control instead of the fixed cutoff")
		memory     = flag.String("memory", "norm", "accumulator layout: norm, chardisc, centdisc")
		seedLen    = flag.Int("seed-len", 0, "seed length k (0 = default 10; >14 selects the frequency-capped large-seed index)")
		indexPath  = flag.String("index", "", "mmap a persisted seed index built by -index-write; validated against the reference, and sets the seed length from the file when -seed-len is unset")
		indexWrite = flag.String("index-write", "", "build the large-seed index (requires -seed-len > 14), persist it to this file, and continue mapping")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "shared-memory worker count")
		accumMode  = flag.String("accum-mode", "auto", "accumulator write strategy: auto, striped (lock stripes on one shared copy), or sharded (lock-free per-worker shards, merged before calling)")
		callWk     = flag.Int("call-workers", 0, "calling-sweep worker count (0 = GOMAXPROCS, 1 = serial; results are bit-identical regardless)")
		callVec    = flag.Bool("call-vector", true, "vectorized plane-streaming calling sweep (norm layout only; calls are bit-identical to the scalar sweep either way)")
		batch      = flag.Int("batch", 0, "reads per streaming batch (0 = default 64)")
		queue      = flag.Int("queue", 0, "streaming work-queue bound, in batches (0 = default 4)")
		band       = flag.Int("band", 0, "PHMM band width in DP cells around the seed diagonal (0 = auto 2*pad+2, negative = exact full kernel)")
		phmmBatch  = flag.Int("phmm-batch", gnumap.DefaultPhmmBatch, "batched PHMM kernel width: candidate windows aligned per wavefront sweep (0 = off, scalar kernel; calls are identical either way)")
		fit        = flag.Bool("fit", false, "fit PHMM parameters to the data (Baum-Welch) before mapping")
		samPath    = flag.String("sam", "", "also write best alignments as SAM to this file (single-process mode only)")
		pileupOut  = flag.String("pileup", "", "also write the probability pileup as TSV to this file (single-process mode only)")
		nodes      = flag.Int("nodes", 1, "simulated cluster size (1 = single process)")
		split      = flag.String("split", "read", "cluster strategy: read (replicate genome) or genome (partition genome)")
		tcp        = flag.Bool("tcp", false, "use loopback TCP between simulated nodes")
		opTimeout  = flag.Duration("op-timeout", 0, "cluster per-operation deadline; >0 also enables read-split shard reassignment on worker death (0 = block forever)")
		heartbeat  = flag.Duration("heartbeat", 0, "cluster heartbeat period for failure detection (0 = auto when -op-timeout is set)")
		chaos      = flag.String("chaos", "", "deterministic fault injection spec, e.g. seed=42,drop=0.02,dup=0.01,crash=2@100")
		ckptPath   = flag.String("checkpoint", "", "write crash-safe checkpoints to this file (streaming runs only); SIGINT/SIGTERM drain, checkpoint, and exit with code 3")
		ckptEvery  = flag.String("checkpoint-every", "5000", "checkpoint interval: an integer (reads) or a duration (e.g. 30s)")
		resume     = flag.Bool("resume", false, "resume from -checkpoint if the file exists (fresh start otherwise)")
		incEvery   = flag.Int64("incremental-every", 0, "overlap SNP calling with mapping: quiesce and re-sweep written genome regions every N reads, reporting time to first provisional call (0 = off; single-process streaming only, incompatible with -checkpoint)")
		metricsOut = flag.String("metrics-out", "", "write the merged metrics report as JSON to this file (and a summary to stderr)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *refPath == "" || *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the /debug/pprof handlers via the
			// net/http/pprof import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeTo(*memProfile, func(f *os.File) error {
				runtime.GC() // flush dead allocations so the profile shows live heap
				return pprof.WriteHeapProfile(f)
			}); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}
	mem, err := parseMemory(*memory)
	if err != nil {
		return err
	}
	enc := gnumap.Sanger
	if *phred64 {
		enc = gnumap.Illumina13
	}
	reference, err := gnumap.LoadReference(*refPath)
	if err != nil {
		return err
	}
	// Fitting and SAM output need random access to the whole read set,
	// so they load the FASTQ; every other run streams it.
	loadReads := *fit || *samPath != ""

	// Checkpoint setup: watermarks name positions in the read stream, so
	// every mode without a replayable stream is rejected up front.
	var ckptCfg *gnumap.CheckpointConfig
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *ckptPath != "" {
		if loadReads {
			return fmt.Errorf("-checkpoint needs the FASTQ streamed: drop -fit/-sam, which load every read")
		}
		if *nodes > 1 && (*split != "read" || *opTimeout > 0 || *chaos != "") {
			return fmt.Errorf("-checkpoint on a cluster supports only -split read without -op-timeout/-chaos")
		}
		everyReads, every, err := parseCheckpointEvery(*ckptEvery)
		if err != nil {
			return err
		}
		var stop atomic.Bool
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			log.Print("signal received: draining and writing a final checkpoint (send again to abort immediately)")
			stop.Store(true)
			<-sig
			os.Exit(130)
		}()
		ckptCfg = &gnumap.CheckpointConfig{
			Path:          *ckptPath,
			EveryReads:    everyReads,
			Every:         every,
			Resume:        *resume,
			StopRequested: stop.Load,
		}
	}
	if *incEvery != 0 {
		if *incEvery < 0 {
			return fmt.Errorf("-incremental-every %d: read interval must be positive", *incEvery)
		}
		if loadReads {
			return fmt.Errorf("-incremental-every needs the FASTQ streamed: drop -fit/-sam, which load every read")
		}
		if *nodes > 1 {
			return fmt.Errorf("-incremental-every runs single-process only (the cluster paths keep their own call flow)")
		}
		if *ckptPath != "" {
			return fmt.Errorf("-incremental-every is incompatible with -checkpoint: both schedule the pipeline's quiesce barriers")
		}
	}
	var reads []*gnumap.Read
	if loadReads {
		reads, err = gnumap.LoadReads(*readsPath, enc)
		if err != nil {
			return err
		}
	}
	opts := gnumap.Options{Memory: mem}
	opts.Engine.K = *seedLen
	switch {
	case *indexPath != "" && *indexWrite != "":
		return fmt.Errorf("-index and -index-write are mutually exclusive")
	case *indexPath != "":
		ix, err := gnumap.OpenSeedIndex(*indexPath, reference)
		if err != nil {
			return fmt.Errorf("open seed index: %w", err)
		}
		defer ix.Close()
		if *seedLen != 0 && *seedLen != ix.K() {
			return fmt.Errorf("-seed-len %d conflicts with %s (built for k=%d)", *seedLen, *indexPath, ix.K())
		}
		opts.Engine.K = ix.K()
		opts.Engine.SeedIndex = ix
		fmt.Fprintf(os.Stderr, "seed index: %s mapped (k=%d, %s)\n",
			*indexPath, ix.K(), humanBytes(ix.MemoryBytes()))
	case *indexWrite != "":
		if *seedLen <= 14 {
			return fmt.Errorf("-index-write persists the large-seed index: set -seed-len above 14 (got %d)", *seedLen)
		}
		built, err := gnumap.BuildSeedIndex(reference, *seedLen)
		if err != nil {
			return err
		}
		lix, ok := built.(*gnumap.LargeSeedIndex)
		if !ok {
			return fmt.Errorf("seed-len %d did not build a persistable index", *seedLen)
		}
		n, err := gnumap.SaveSeedIndex(*indexWrite, lix, reference)
		if err != nil {
			return fmt.Errorf("write seed index: %w", err)
		}
		opts.Engine.SeedIndex = lix
		fmt.Fprintf(os.Stderr, "seed index: wrote %s (k=%d, %s)\n", *indexWrite, *seedLen, humanBytes(n))
	}
	opts.Engine.Workers = *workers
	opts.Engine.Band = *band
	// Config semantics: 0 means "default width", so the flag's 0=off
	// convention maps to the explicit disable value.
	if *phmmBatch <= 0 {
		opts.Engine.PhmmBatch = -1
	} else {
		opts.Engine.PhmmBatch = *phmmBatch
	}
	opts.Engine.Batch = *batch
	opts.Engine.Queue = *queue
	accum, err := gnumap.ParseAccumStrategy(*accumMode)
	if err != nil {
		return err
	}
	opts.Engine.Accum = accum
	opts.Caller.CallWorkers = *callWk
	if !*callVec {
		opts.Caller.CallVector = -1
	}
	if *fit {
		sample := reads
		if len(sample) > 2000 {
			sample = sample[:2000]
		}
		params, err := gnumap.FitPHMM(reference, sample, 500)
		if err != nil {
			return err
		}
		opts.Engine.PHMM = params
		fmt.Fprintf(os.Stderr, "fitted PHMM: TMM=%.4f TMG=%.5f\n", params.TMM, params.TMG)
	}
	opts.Caller.Alpha = *alpha
	opts.Caller.UseFDR = *fdr
	if *diploid {
		opts.Caller.Ploidy = gnumap.Diploid
	}

	start := time.Now()
	var calls []gnumap.SNPCall
	var stats gnumap.MapStats
	var qcStats *gnumap.CoverageStats
	var report *gnumap.MetricsReport
	if *nodes > 1 {
		splitMode := gnumap.ReadSplit
		if *split == "genome" {
			splitMode = gnumap.GenomeSplit
		} else if *split != "read" {
			return fmt.Errorf("unknown -split %q (want read or genome)", *split)
		}
		transport := gnumap.Channels
		if *tcp {
			transport = gnumap.TCP
		}
		opts.Cluster.OpTimeout = *opTimeout
		opts.Cluster.Heartbeat = *heartbeat
		if *opTimeout > 0 && *heartbeat == 0 {
			// Failure detection needs heartbeats; derive a period well
			// inside the deadline so slow ranks are not declared dead.
			opts.Cluster.Heartbeat = *opTimeout / 10
		}
		if *chaos != "" {
			fc, err := gnumap.ParseChaosSpec(*chaos)
			if err != nil {
				return err
			}
			opts.Cluster.Fault = &fc
		}
		opts.Checkpoint = ckptCfg
		src, closeSrc, err := openSource(reads, *readsPath, enc)
		if err != nil {
			return err
		}
		if *metricsOut != "" {
			calls, stats, report, err = gnumap.RunClusterReport(*nodes, transport, splitMode, reference, src, opts)
		} else {
			calls, stats, err = gnumap.RunCluster(*nodes, transport, splitMode, reference, src, opts)
		}
		err = closeSrc(err)
		if errors.Is(err, gnumap.ErrStopped) {
			return fmt.Errorf("%w to %s; relaunch with -resume to continue", err, *ckptPath)
		}
		if err != nil {
			return err
		}
		if stats.Degraded() {
			fmt.Fprintf(os.Stderr, "WARNING: degraded run — lost rank(s) %v; their read shards were reassigned to survivors\n", stats.LostRanks)
		}
	} else {
		var reg *gnumap.MetricsRegistry
		if *metricsOut != "" {
			reg = gnumap.NewMetricsRegistry()
			opts.Metrics = reg
		}
		p, err := gnumap.NewPipeline(reference, opts)
		if err != nil {
			return err
		}
		src, closeSrc, err := openSource(reads, *readsPath, enc)
		if err != nil {
			return err
		}
		var incRes *gnumap.IncrementalResult
		switch {
		case ckptCfg != nil:
			stats, err = runCheckpointed(p, src, ckptCfg)
		case *incEvery > 0:
			stats, incRes, err = p.MapReadsFromIncremental(src, gnumap.IncrementalCallConfig{EveryReads: *incEvery})
		default:
			stats, err = p.MapReadsFrom(src)
		}
		err = closeSrc(err)
		if errors.Is(err, gnumap.ErrStopped) {
			// Flush what the interrupted run did record before exiting
			// with the resumable status.
			if reg != nil {
				if rep, rerr := gnumap.NewMetricsReport([]gnumap.MetricsSnapshot{
					reg.Snapshot(0),
					gnumap.ProcessMetrics().Snapshot(gnumap.MetricsProcessRank),
				}, nil); rerr == nil {
					if werr := writeTo(*metricsOut, func(f *os.File) error { return rep.WriteJSON(f) }); werr != nil {
						log.Printf("metrics-out: %v", werr)
					}
				}
			}
			return fmt.Errorf("%w to %s; relaunch with -resume to continue", err, ckptCfg.Path)
		}
		if err != nil {
			return err
		}
		if incRes != nil {
			// The incremental run's final sweep already produced the
			// definitive call set; a second full sweep would be waste.
			calls = incRes.Calls
			if incRes.FirstCallSeconds > 0 {
				fmt.Fprintf(os.Stderr, "incremental: first provisional call after %.2fs (%d reads); %d sweeps, %d regions swept, %d reused\n",
					incRes.FirstCallSeconds, incRes.FirstCallReads, incRes.Sweeps, incRes.RegionsSwept, incRes.RegionsReused)
			}
		} else {
			calls, _, err = p.Call()
			if err != nil {
				return err
			}
		}
		cs := p.CoverageStats()
		qcStats = &cs
		if *samPath != "" {
			if err := writeTo(*samPath, func(f *os.File) error {
				return p.WriteSAM(f, reads)
			}); err != nil {
				return err
			}
		}
		if *pileupOut != "" {
			if err := writeTo(*pileupOut, func(f *os.File) error {
				return p.WritePileup(f, 2)
			}); err != nil {
				return err
			}
		}
		if reg != nil {
			report, err = gnumap.NewMetricsReport([]gnumap.MetricsSnapshot{
				reg.Snapshot(0),
				gnumap.ProcessMetrics().Snapshot(gnumap.MetricsProcessRank),
			}, nil)
			if err != nil {
				return err
			}
		}
	}
	elapsed := time.Since(start)

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := gnumap.WriteVCF(out, calls); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mapped %d/%d reads (%d locations) in %s; %d SNPs\n",
		stats.Mapped, stats.Mapped+stats.Unmapped, stats.Locations, elapsed.Round(time.Millisecond), len(calls))
	if qcStats != nil {
		qcStats.WriteText(os.Stderr)
	}
	if report != nil {
		if err := writeTo(*metricsOut, func(f *os.File) error { return report.WriteJSON(f) }); err != nil {
			return err
		}
		if err := report.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

// openSource returns the run's read source: the reads -fit/-sam loaded
// (non-nil reads), or the FASTQ at path streamed through the bounded
// pipeline. closeSrc closes the stream, publishing its I/O metrics, and
// returns err, or the close error when err is nil.
func openSource(reads []*gnumap.Read, path string, enc gnumap.QualityEncoding) (src gnumap.ReadSource, closeSrc func(error) error, err error) {
	if reads != nil {
		return gnumap.SliceReadSource(reads), func(err error) error { return err }, nil
	}
	f, err := gnumap.OpenReads(path, enc)
	if err != nil {
		return nil, nil, err
	}
	return f, func(err error) error {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// runCheckpointed is the single-process checkpointed mapping leg:
// resume if asked (a missing checkpoint is a fresh start), skip the
// watermark prefix, stream the rest with periodic checkpoints. The
// returned stats are cumulative across the whole job, so the summary
// line stays honest after a resume.
func runCheckpointed(p *gnumap.Pipeline, src gnumap.ReadSource, cc *gnumap.CheckpointConfig) (gnumap.MapStats, error) {
	if cc.Resume {
		skip, err := p.ResumeCheckpoint(cc.Path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// No checkpoint yet: first run of a resumable job.
		case err != nil:
			return gnumap.MapStats{}, err
		default:
			fmt.Fprintf(os.Stderr, "resuming from %s: %d reads already mapped\n", cc.Path, skip)
			if err := p.SkipReads(src, skip); err != nil {
				return gnumap.MapStats{}, err
			}
		}
	}
	_, err := p.MapReadsFromCheckpointed(src, *cc)
	return p.CumulativeStats(), err
}

// parseCheckpointEvery reads the -checkpoint-every value: a bare
// integer is a read-count interval, anything else must parse as a
// duration.
func parseCheckpointEvery(s string) (int64, time.Duration, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n <= 0 {
			return 0, 0, fmt.Errorf("-checkpoint-every %q: read interval must be positive", s)
		}
		return n, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-checkpoint-every %q: want a positive read count or duration", s)
	}
	return 0, d, nil
}

// writeTo creates a file and hands it to fn.
// humanBytes renders a byte count for status lines.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func writeTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseMemory maps a flag value to a MemoryMode.
func parseMemory(s string) (gnumap.MemoryMode, error) {
	switch s {
	case "norm":
		return gnumap.MemNorm, nil
	case "chardisc":
		return gnumap.MemCharDisc, nil
	case "centdisc":
		return gnumap.MemCentDisc, nil
	default:
		return 0, fmt.Errorf("unknown -memory %q (want norm, chardisc, or centdisc)", s)
	}
}
