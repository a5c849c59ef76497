package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"gnumap"
	"gnumap/internal/cluster"
	"gnumap/internal/core"
	"gnumap/internal/fasta"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/kmer"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
	"gnumap/internal/qc"
	"gnumap/internal/snp"
)

// replaySample is the number of reads, from the head of the FASTQ,
// that the serial replay maps.
const replaySample = 4096

// traceResult is what the traced process hands back.
type traceResult struct {
	WallS       float64            `json:"wall_s"`
	Reads       int64              `json:"reads"`
	Layers      map[string]float64 `json:"layers"`
	Ledger      []ledgerRow        `json:"ledger"`
	Replay      replayCounts       `json:"replay"`
	Program     replayCounts       `json:"program"`
	Spans       int                `json:"spans"`
	SpansPath   string             `json:"spans_path"`
	VCFPath     string             `json:"vcf_path"`
	MappedReads int64              `json:"mapped_reads"`
}

// runTraced makes the traced run in a fresh process.
func runTraced(w workload, ref, reads, outDir string) (traceResult, error) {
	err := runSelf("trace", "-workload", w.Name, "-ref", ref, "-reads", reads, "-out", outDir,
		"-start", strconv.FormatInt(time.Now().UnixNano(), 10))
	if err != nil {
		return traceResult{}, err
	}
	resPath := filepath.Join(outDir, "trace.json")
	data, err := os.ReadFile(resPath)
	if err != nil {
		return traceResult{}, err
	}
	var tr traceResult
	if err := json.Unmarshal(data, &tr); err != nil {
		return traceResult{}, fmt.Errorf("%s: %w", resPath, err)
	}
	return tr, nil
}

// tracedMain is the traced process: it runs the workload's pipeline
// through the public functions the CLI reaches, with phase spans
// around each and seam spans on the FASTQ source and the seed index,
// then replays a read sample through the layers without a seam.
func tracedMain(args []string) error {
	entered := time.Now()
	fs := flag.NewFlagSet("traced", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	ref := fs.String("ref", "", "reference FASTA")
	reads := fs.String("reads", "", "reads FASTQ")
	out := fs.String("out", "", "directory for the VCF, spans and result")
	startNs := fs.Int64("start", 0, "process start as Unix nanoseconds, taken by the parent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	t := &tracedRun{
		w: w, refPath: *ref, readsPath: *reads, rec: newRecorder(time.Unix(0, *startNs)),
		vcfPath: filepath.Join(*out, "traced.vcf"), layers: map[string]float64{},
	}
	t.main = t.rec.newLane()
	// Exec, runtime start and package initialization, up to main: the
	// CLI pays the same before its first line runs.
	t.main.add("process.start", 0, 0, t.rec.base, entered)
	var err error
	if w.Nodes > 1 {
		err = t.runCluster()
	} else {
		err = t.runSingle()
	}
	if err != nil {
		return err
	}
	wallEnd := t.rec.since(time.Now())
	if err := t.replay(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	spans := t.rec.all()
	t.layers["trace.coverage_frac"] = coverage(spans, wallEnd)
	res := traceResult{
		WallS:       float64(wallEnd) / 1e9,
		Reads:       t.reads,
		Layers:      t.layers,
		Ledger:      ledger(spans, t.reads),
		Replay:      t.replayed,
		Program:     t.program,
		Spans:       len(spans),
		SpansPath:   filepath.Join(*out, "spans.tsv"),
		VCFPath:     t.vcfPath,
		MappedReads: t.mapped,
	}
	if err := writeSpans(res.SpansPath, spans); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*out, "trace.json"), data, 0o644)
}

// coverage is the share of [0, wallEnd) covered by top-level phases.
func coverage(spans []span, wallEnd int64) float64 {
	var top [][2]int64
	for _, s := range spans {
		if s.Parent == 0 {
			top = append(top, [2]int64{s.Start, s.End})
		}
	}
	return ratio(float64(covered(top, 0, wallEnd)), float64(wallEnd))
}

type tracedRun struct {
	w                  workload
	refPath, readsPath string
	rec                *recorder
	main               *lane
	vcfPath            string
	layers             map[string]float64

	recs   []*fasta.Record
	ref    *genome.Reference
	idx    kmer.SeedIndex // rank 0's index, reused by the replay
	reads  int64
	mapped int64

	replayed, program replayCounts
}

// engineConfig mirrors the options gnumap-snp builds from the
// workload's flags; every other knob is the CLI default.
func (t *tracedRun) engineConfig() core.Config {
	return core.Config{Workers: t.w.Workers, PhmmBatch: core.DefaultPhmmBatch}
}

func (t *tracedRun) callerConfig(reg *obs.Registry) snp.Config {
	cfg := snp.Config{Alpha: 0.05, Metrics: reg}
	if t.w.Diploid {
		cfg.Ploidy = lrt.Diploid
	}
	return cfg
}

// loadReference is the setup the CLI does before any index exists.
func (t *tracedRun) loadReference(parent int64) error {
	if err := t.main.phase("fasta.load", parent, func(int64) (err error) {
		t.recs, err = fasta.ReadFile(t.refPath)
		return err
	}); err != nil {
		return err
	}
	t.layers["fasta.load_s"] = t.main.lastSeconds()
	return t.main.phase("genome.reference", parent, func(int64) (err error) {
		t.ref, err = genome.NewReference(t.recs)
		return err
	})
}

// buildIndex builds one seed index in a kmer.build span (on the given
// lane, so cluster ranks build concurrently as they do in the CLI).
func (t *tracedRun) buildIndex(l *lane, parent int64) (kmer.SeedIndex, float64, error) {
	var idx kmer.SeedIndex
	err := l.phase("kmer.build", parent, func(int64) (err error) {
		idx, err = kmer.Build(t.ref.Seq(), t.engineConfig().Resolved().K)
		return err
	})
	return idx, l.lastSeconds(), err
}

// runSingle mirrors gnumap-snp's single-process path: LoadReference,
// NewPipeline (reference, seed index, engine, accumulator), OpenReads,
// MapReadsFrom, Call (combine, then CallAll), CoverageStats, and the
// VCF writer, which builds a default pipeline before writing.
func (t *tracedRun) runSingle() error {
	cfg := t.engineConfig()
	var tidx *tracedIndex
	var eng *core.Engine
	var acc, combined genome.Accumulator
	if err := t.main.phase("setup", 0, func(id int64) error {
		if err := t.loadReference(id); err != nil {
			return err
		}
		idx, secs, err := t.buildIndex(t.main, id)
		if err != nil {
			return err
		}
		t.idx = idx
		t.layers["kmer.index_build_s"] = secs
		t.layers["kmer.index_bytes"] = float64(idx.MemoryBytes())
		tidx = newTracedIndex(idx, t.rec)
		cfg.SeedIndex = tidx
		if err := t.main.phase("core.engine", id, func(int64) (err error) {
			eng, err = core.NewEngine(t.ref, cfg)
			return err
		}); err != nil {
			return err
		}
		return t.main.phase("genome.alloc", id, func(int64) (err error) {
			acc, err = core.NewAccumulator(t.w.Memory, t.ref.Len(), cfg)
			return err
		})
	}); err != nil {
		return err
	}
	var src *tracedSource
	if err := t.main.phase("core.map", 0, func(id int64) error {
		f, err := fastq.Open(t.readsPath, fastq.Sanger)
		if err != nil {
			return err
		}
		src = &tracedSource{src: f, lane: t.rec.newLane(), parent: id}
		tidx.parent = id
		st, err := eng.MapReadsFrom(src, acc, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		t.mapped = st.Mapped
		return err
	}); err != nil {
		return err
	}
	t.layers["core.map_s"] = t.main.lastSeconds()
	t.layers["genome.accum_bytes"] = float64(acc.MemoryBytes())
	t.seamLayers(src, tidx)
	if err := t.main.phase("genome.combine", 0, func(int64) (err error) {
		combined, err = core.CombineAccumulator(acc, nil)
		return err
	}); err != nil {
		return err
	}
	t.layers["genome.combine_s"] = t.main.lastSeconds()
	calls, err := t.call(t.main, 0, combined)
	if err != nil {
		return err
	}
	if err := t.main.phase("qc.coverage", 0, func(int64) error {
		qc.SummarizeCoverage(combined, 64)
		return nil
	}); err != nil {
		return err
	}
	return t.write(calls)
}

// runCluster mirrors gnumap-snp's streamed read-split cluster path
// (gnumap.RunClusterStream): every rank builds its own index and runs
// core.RunReadSplitStream — deal or receive, combine, reduce — and
// rank 0 calls SNPs on the reduced state. Only each rank's index is
// wrapped, so the seed seam sees every rank.
func (t *tracedRun) runCluster() error {
	var f *fastq.File
	if err := t.main.phase("setup", 0, func(id int64) error {
		if err := t.loadReference(id); err != nil {
			return err
		}
		return t.main.phase("fastq.open", id, func(int64) (err error) {
			f, err = fastq.Open(t.readsPath, fastq.Sanger)
			return err
		})
	}); err != nil {
		return err
	}
	defer f.Close()
	nodes := t.w.Nodes
	buildS := make([]float64, nodes)
	indexBytes := make([]int64, nodes)
	tidxs := make([]*tracedIndex, nodes)
	var src *tracedSource
	var calls []snp.Call
	var mapS, combineS float64
	var accBytes int64
	err := t.main.phase("cluster.run", 0, func(runID int64) error {
		return cluster.RunWithConfig(nodes, cluster.RunConfig{Kind: cluster.Channels}, func(c *cluster.Comm) error {
			l := t.rec.newLane()
			r := c.Rank()
			idx, secs, err := t.buildIndex(l, runID)
			if err != nil {
				return err
			}
			buildS[r], indexBytes[r] = secs, idx.MemoryBytes()
			tidx := newTracedIndex(idx, t.rec)
			tidxs[r] = tidx
			cfg := t.engineConfig()
			cfg.SeedIndex = tidx
			var rsrc fastq.Source
			if r == 0 {
				t.idx = idx
			}
			var acc genome.Accumulator
			var st core.Stats
			if err := l.phase("cluster.map", runID, func(id int64) (err error) {
				tidx.parent = id
				if r == 0 {
					src = &tracedSource{src: f, lane: t.rec.newLane(), parent: id}
					rsrc = src
				}
				acc, st, err = core.RunReadSplitStream(c, t.ref, rsrc, t.w.Memory, cfg)
				return err
			}); err != nil {
				return err
			}
			if r != 0 {
				return nil
			}
			mapS = l.lastSeconds()
			t.mapped = st.Mapped
			accBytes = acc.MemoryBytes() * int64(nodes)
			var combined genome.Accumulator
			if err := l.phase("genome.combine", runID, func(int64) (err error) {
				combined, err = core.CombineAccumulator(acc, nil)
				return err
			}); err != nil {
				return err
			}
			combineS = l.lastSeconds()
			calls, err = t.call(l, runID, combined)
			return err
		})
	})
	if err != nil {
		return err
	}
	var maxBuild float64
	var bytes int64
	for r := range buildS {
		maxBuild = max(maxBuild, buildS[r])
		bytes += indexBytes[r]
	}
	t.layers["kmer.index_build_s"] = maxBuild
	t.layers["kmer.index_bytes"] = float64(bytes)
	t.layers["core.map_s"] = mapS
	t.layers["genome.combine_s"] = combineS
	t.layers["genome.accum_bytes"] = float64(accBytes)
	t.seamLayers(src, tidxs...)
	return t.write(calls)
}

// seamLayers turns the two seams' totals into per-read metrics.
func (t *tracedRun) seamLayers(src *tracedSource, tidxs ...*tracedIndex) {
	t.reads = src.reads
	n := float64(src.reads)
	seed := seedTotals(tidxs)
	t.layers["fastq.next_ns_per_read"] = ratio(float64(src.ns), n)
	t.layers["kmer.seed_ns_per_read"] = ratio(float64(seed.ns), n)
	t.layers["kmer.seed_hits_per_read"] = ratio(float64(seed.hits), n)
	t.layers["kmer.masked_per_read"] = ratio(float64(seed.masked), n)
	t.layers["kmer.candidates_per_read"] = ratio(float64(seed.candidates), n)
	t.layers["core.reads_per_s_map"] = ratio(n, t.layers["core.map_s"])
}

// call runs snp.CallAll in a snp.call span. Its registry only collects
// the prescreen counters CallStats lacks.
func (t *tracedRun) call(l *lane, parent int64, acc genome.Accumulator) ([]snp.Call, error) {
	reg := obs.NewRegistry()
	var calls []snp.Call
	var st snp.Stats
	if err := l.phase("snp.call", parent, func(int64) (err error) {
		calls, st, err = snp.CallAll(t.ref, acc, t.callerConfig(reg))
		return err
	}); err != nil {
		return nil, err
	}
	secs := l.lastSeconds()
	t.layers["snp.call_s"] = secs
	t.layers["snp.sweep_ns_per_pos"] = secs * 1e9 / float64(t.ref.Len())
	t.layers["snp.tested_positions"] = float64(st.Tested)
	t.layers["snp.prescreen_skip_frac"] = ratio(float64(reg.Counter("call.prescreened").Value()), float64(st.Tested))
	return calls, nil
}

// write is the CLI's VCF step: it builds a default pipeline (as
// gnumap-snp's writeVCF does) and writes the calls with snp.WriteVCF.
func (t *tracedRun) write(calls []snp.Call) error {
	return t.main.phase("write", 0, func(id int64) error {
		if err := t.main.phase("cli.vcf_pipeline", id, func(int64) error {
			_, err := gnumap.NewPipeline(t.recs, gnumap.Options{})
			return err
		}); err != nil {
			return err
		}
		if err := t.main.phase("snp.write", id, func(int64) error {
			f, err := os.Create(t.vcfPath)
			if err != nil {
				return err
			}
			if err := snp.WriteVCF(f, calls, "gnumap-snp"); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}); err != nil {
			return err
		}
		t.layers["snp.write_s"] = t.main.lastSeconds()
		fi, err := os.Stat(t.vcfPath)
		if err != nil {
			return err
		}
		t.layers["snp.vcf_bytes"] = float64(fi.Size())
		return nil
	})
}

// replay maps the head of the FASTQ serially through the layers the
// pipeline gives no seam, then reconciles its work counts with the
// engine's own counters on the same reads.
func (t *tracedRun) replay() error {
	f, err := fastq.Open(t.readsPath, fastq.Sanger)
	if err != nil {
		return err
	}
	defer f.Close()
	var sample []*fastq.Read
	for len(sample) < replaySample {
		rd, err := f.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		sample = append(sample, rd)
	}
	cfg := t.engineConfig()
	var rp *replayer
	if err := t.main.phase("trace.replay", 0, func(id int64) error {
		var err error
		if rp, err = newReplayer(cfg, t.ref, t.idx, t.w.Memory, t.rec, id); err != nil {
			return err
		}
		for _, rd := range sample {
			if err := rp.read(rd); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	rp.counts.Cells = rp.cells()
	t.replayed = rp.counts
	if t.program, err = programCounts(cfg, t.ref, t.idx, t.w.Memory, sample); err != nil {
		return err
	}
	c := rp.counts
	n := float64(c.Reads)
	al := float64(c.Alignments)
	t.layers["pwm.build_ns_per_read"] = ratio(float64(rp.pwmNs), n)
	t.layers["kmer.candidate_yield"] = ratio(al, float64(c.Candidates))
	t.layers["phmm.align_ns_per_read"] = ratio(float64(rp.alignNs), n)
	t.layers["phmm.alignments_per_read"] = ratio(al, n)
	t.layers["phmm.cells_per_read"] = ratio(float64(c.Cells), n)
	t.layers["phmm.ns_per_cell"] = ratio(float64(rp.alignNs), float64(c.Cells))
	t.layers["phmm.batch_lane_fill"] = ratio(float64(rp.lanes), float64(rp.batches))
	t.layers["phmm.scalar_frac"] = ratio(float64(rp.scalar), al)
	t.layers["phmm.accept_frac"] = ratio(float64(rp.accepted), al)
	t.layers["phmm.contrib_ns_per_read"] = ratio(float64(rp.contribNs), n)
	t.layers["genome.add_ns_per_read"] = ratio(float64(rp.addNs), n)
	t.layers["genome.locations_per_read"] = ratio(float64(c.Locations), n)
	t.layers["trace.replay_count_drift"] = drift(t.replayed, t.program)
	return nil
}
