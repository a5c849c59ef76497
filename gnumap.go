// Package gnumap is the public API of the GNUMAP-SNP reproduction: a
// probabilistic Pair-Hidden-Markov-Model read mapper and SNP caller
// with likelihood-ratio-test significance, parallel on shared memory
// and on a simulated message-passing cluster, with the paper's three
// accumulator memory layouts (NORM, CHARDISC, CENTDISC).
//
// # Quick start
//
//	ds, _ := gnumap.SimulateDataset(gnumap.SimConfig{GenomeLength: 100000, SNPCount: 10, Coverage: 12, Seed: 1})
//	p, _ := gnumap.NewPipeline(ds.Reference, gnumap.Options{})
//	p.MapReads(ds.Reads)
//	calls, _, _ := p.Call()
//	fmt.Println(gnumap.Evaluate(calls, ds.Truth))
//
// The heavy lifting lives in internal packages (phmm, genome, lrt,
// cluster, ...); this package wires them together and re-exports the
// types a downstream user needs.
package gnumap

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"time"

	"gnumap/internal/baseline"
	"gnumap/internal/ckpt"
	"gnumap/internal/cluster"
	"gnumap/internal/core"
	"gnumap/internal/dna"
	"gnumap/internal/fasta"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/kmer"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
	"gnumap/internal/phmm"
	"gnumap/internal/qc"
	"gnumap/internal/simulate"
	"gnumap/internal/snp"
)

func init() {
	// Candidate batches travel rank→rank-0 inside a collective when a
	// genome-split run applies global FDR.
	gob.Register([]snp.Candidate{})
}

// Read is one sequencing read (name, bases, Phred qualities).
type Read = fastq.Read

// Contig is one named reference sequence.
type Contig = fasta.Record

// SNPCall is one called variant.
type SNPCall = snp.Call

// Metrics is the TP/FP/FN accuracy accounting against a truth set.
type Metrics = snp.Metrics

// TruthSNP is one planted variant of a simulated dataset.
type TruthSNP = simulate.SNP

// EngineConfig tunes the mapper (see internal/core.Config for fields;
// the zero value selects paper defaults).
type EngineConfig = core.Config

// MapStats counts mapping outcomes.
type MapStats = core.Stats

// CallerConfig tunes SNP calling (significance level, ploidy, FDR).
type CallerConfig = snp.Config

// CallStats summarizes a calling run.
type CallStats = snp.Stats

// MemoryMode selects the accumulator layout.
type MemoryMode = genome.Mode

// The accumulator memory layouts (paper §VI-B).
const (
	MemNorm     = genome.Norm
	MemCharDisc = genome.CharDisc
	MemCentDisc = genome.CentDisc
)

// AccumStrategy selects how parallel mapping workers write the
// accumulator: through 4096-position lock stripes on one shared copy,
// or lock-free into private per-worker shards folded by a parallel
// tree merge before the first read. Set via EngineConfig.Accum.
type AccumStrategy = core.AccumStrategy

// The accumulation strategies.
const (
	// AccumAuto picks sharded when Workers > 1 and the per-worker
	// copies fit EngineConfig.AccumMemBudget, striped otherwise.
	AccumAuto = core.AccumAuto
	// AccumStriped forces the single lock-striped accumulator.
	AccumStriped = core.AccumStriped
	// AccumSharded forces private per-worker shards.
	AccumSharded = core.AccumSharded
)

// ParseAccumStrategy parses "auto", "striped", or "sharded" (the
// -accum-mode CLI values) into an AccumStrategy.
func ParseAccumStrategy(s string) (AccumStrategy, error) {
	return core.ParseAccumStrategy(s)
}

// DefaultPhmmBatch is the default lane width of the batched wavefront
// Pair-HMM kernel. Set via EngineConfig.PhmmBatch (0 selects this
// default; 1 or negative forces the scalar kernel).
const DefaultPhmmBatch = core.DefaultPhmmBatch

// Ploidy selects the LRT hypothesis family.
type Ploidy = lrt.Ploidy

// The ploidy models (paper Eq. 1 and Eq. 2).
const (
	Monoploid = lrt.Monoploid
	Diploid   = lrt.Diploid
)

// QualityEncoding selects the FASTQ quality encoding.
type QualityEncoding = fastq.Encoding

// The supported FASTQ quality encodings.
const (
	Sanger     = fastq.Sanger
	Illumina13 = fastq.Illumina13
)

// Options configures a Pipeline.
type Options struct {
	// Engine tunes mapping; zero value = paper defaults.
	Engine EngineConfig
	// Memory selects the accumulator layout (default MemNorm).
	Memory MemoryMode
	// Caller tunes SNP calling; zero value = monoploid, α = 0.05.
	Caller CallerConfig
	// Cluster tunes the fault model of simulated-cluster runs (op
	// deadlines, heartbeat failure detection, chaos injection). The
	// zero value keeps the historical block-forever behavior.
	Cluster ClusterConfig
	// Metrics, when non-nil, receives the pipeline's stage timers and
	// counters (mapping, Pair-HMM, calling). It applies to NewPipeline;
	// RunCluster ignores it, and RunClusterReport builds one registry per
	// rank and returns the aggregated result.
	Metrics *MetricsRegistry
	// Checkpoint, when non-nil, makes RunCluster and RunClusterReport
	// write durable checkpoints (and honor Resume/StopRequested). Only
	// streamed ReadSplit runs support it; GenomeSplit, fault-tolerant
	// (OpTimeout > 0) and chaos runs are rejected — shard reassignment
	// and checkpoint watermarks cannot both own the replay story.
	// Single-process pipelines use Pipeline.MapReadsFromCheckpointed
	// instead.
	Checkpoint *CheckpointConfig
}

// MetricsRegistry is a set of named counters, gauges, and latency
// histograms recording where a run spends its time (see internal/obs
// for the metric taxonomy). Registries are safe for concurrent use.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is one registry's point-in-time state, tagged with
// the rank that produced it.
type MetricsSnapshot = obs.Snapshot

// MetricsReport aggregates per-rank snapshots: each rank's snapshot,
// the ranks that died before reporting, and the merged totals.
type MetricsReport = obs.Report

// NewMetricsRegistry returns an empty registry for Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ProcessMetrics returns the process-wide registry, which collects
// rank-independent activity such as FASTA/FASTQ file I/O.
func ProcessMetrics() *MetricsRegistry { return obs.Default() }

// MetricsProcessRank tags a snapshot as process-wide (rank-independent)
// rather than belonging to a cluster rank.
const MetricsProcessRank = obs.ProcessRank

// NewMetricsReport merges per-scope snapshots into a report. Cluster
// runs get this done by RunClusterReport; single-process callers can
// assemble one from their registry's snapshot plus ProcessMetrics().
func NewMetricsReport(snaps []MetricsSnapshot, deadRanks []int) (*MetricsReport, error) {
	return obs.NewReport(snaps, deadRanks)
}

// ValidateMetricsJSON checks that data parses as a serialized
// MetricsReport with internally consistent merged totals.
func ValidateMetricsJSON(data []byte) error { return obs.ValidateReportJSON(data) }

// ClusterConfig is the fault model for RunCluster: operation deadlines,
// heartbeat failure detection, and optional deterministic fault
// injection.
type ClusterConfig struct {
	// OpTimeout bounds every cluster Send/Recv/collective; in read-split
	// mode it also switches to the fault-tolerant coordinator protocol
	// that reassigns a dead worker's read shard (0 = off).
	OpTimeout time.Duration
	// Heartbeat enables the failure detector at this period (0 = off).
	Heartbeat time.Duration
	// Fault, when non-nil, injects deterministic chaos (drops, dups,
	// delays, reorders, rank crashes) from a seeded RNG.
	Fault *FaultConfig
}

// FaultConfig parameterizes deterministic fault injection.
type FaultConfig = cluster.FaultConfig

// ParseChaosSpec parses a -chaos CLI spec like
// "seed=42,drop=0.02,dup=0.01,crash=2@100" into a FaultConfig.
func ParseChaosSpec(spec string) (FaultConfig, error) {
	return cluster.ParseFaultSpec(spec)
}

// Pipeline is a reference plus mapping and calling state: build one,
// feed it reads (possibly in several MapReads calls — accumulation is
// online), then Call.
type Pipeline struct {
	ref  *genome.Reference
	eng  *core.Engine
	acc  genome.Accumulator
	opts Options
	// cum/consumed track mapping outcomes across the pipeline's life
	// (all mapping calls plus any resumed checkpoint) — the counters
	// checkpoints persist so a resumed job's accounting stays honest.
	cum      MapStats
	consumed int64
}

// NewPipeline indexes the reference and allocates the accumulator.
func NewPipeline(reference []*Contig, opts Options) (*Pipeline, error) {
	if opts.Metrics != nil {
		if opts.Engine.Metrics == nil {
			opts.Engine.Metrics = opts.Metrics
		}
		if opts.Caller.Metrics == nil {
			opts.Caller.Metrics = opts.Metrics
		}
	}
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ref, opts.Engine)
	if err != nil {
		return nil, err
	}
	acc, err := core.NewAccumulator(opts.Memory, ref.Len(), opts.Engine)
	if err != nil {
		return nil, err
	}
	return &Pipeline{ref: ref, eng: eng, acc: acc, opts: opts}, nil
}

// combined folds any outstanding per-worker shards into the base
// accumulator (a no-op for the striped layout) so read paths — calling,
// pileup, coverage, checkpointing — see the full accumulated mass
// without paying the sharded wrapper's per-position locking.
func (p *Pipeline) combined() (genome.Accumulator, error) {
	return core.CombineAccumulator(p.acc, p.opts.Engine.Metrics)
}

// noteRun folds one completed mapping run into the pipeline's
// cumulative accounting. Every read counts as exactly one of
// mapped/unmapped, so their sum is the number of reads consumed.
func (p *Pipeline) noteRun(st MapStats) {
	p.cum.Mapped += st.Mapped
	p.cum.Unmapped += st.Unmapped
	p.cum.Locations += st.Locations
	p.consumed += st.Mapped + st.Unmapped
}

// MapReads maps a batch of reads into the pipeline's accumulator: it is
// MapReadsFrom over SliceReadSource(reads). It may be called repeatedly.
func (p *Pipeline) MapReads(reads []*Read) (MapStats, error) {
	st, err := p.eng.MapReads(reads, p.acc, 0)
	if err == nil {
		p.noteRun(st)
	}
	return st, err
}

// MapReadsFrom maps every read the source yields through the bounded
// streaming pipeline: resident memory is capped at
// (Engine.Queue + Engine.Workers) · Engine.Batch reads regardless of
// the input size. It may be called repeatedly.
func (p *Pipeline) MapReadsFrom(src ReadSource) (MapStats, error) {
	st, err := p.eng.MapReadsFrom(src, p.acc, 0)
	if err == nil {
		p.noteRun(st)
	}
	return st, err
}

// Call runs the likelihood-ratio SNP caller over the accumulated state.
// With Caller.CallWorkers > 1 (or 0 on a multi-core host) the sweep is
// chunked across a worker pool; the result is bit-identical to the
// serial sweep because candidates concatenate in genome order before
// the single global significance pass.
func (p *Pipeline) Call() ([]SNPCall, CallStats, error) {
	acc, err := p.combined()
	if err != nil {
		return nil, CallStats{}, err
	}
	return snp.CallAll(p.ref, acc, p.opts.Caller)
}

// WriteVCF writes calls as VCF 4.2. It needs no pipeline: the VCF
// depends only on the calls.
func WriteVCF(w io.Writer, calls []SNPCall) error {
	return snp.WriteVCF(w, calls, "gnumap-snp")
}

// WriteVCF writes calls as VCF 4.2; see the package-level WriteVCF.
func (p *Pipeline) WriteVCF(w io.Writer, calls []SNPCall) error {
	return WriteVCF(w, calls)
}

// WriteSAM maps the reads again and writes each read's single best
// alignment as SAM (Viterbi path of the highest-posterior location).
// Note this is a separate pass: the accumulation pipeline marginalizes
// over alignments and does not retain per-read paths.
func (p *Pipeline) WriteSAM(w io.Writer, reads []*Read) error {
	return p.eng.WriteAlignments(w, reads, "gnumap-snp")
}

// WritePileup writes the per-position probability pileup as TSV for
// positions with at least minDepth accumulated mass.
func (p *Pipeline) WritePileup(w io.Writer, minDepth float64) error {
	acc, err := p.combined()
	if err != nil {
		return err
	}
	return snp.WritePileup(w, p.ref, acc, 0, 0, p.ref.Len(), minDepth)
}

// SaveState serializes the pipeline's accumulated per-position state
// so a long accumulation run can be checkpointed and resumed (or moved
// between machines). The bytes are a versioned, checksummed checkpoint
// (internal/ckpt) carrying the config fingerprint and cumulative
// mapping counters alongside the accumulator state.
func (p *Pipeline) SaveState(w io.Writer) error {
	acc, err := p.combined()
	if err != nil {
		return err
	}
	st, ok := acc.(genome.Stateful)
	if !ok {
		return fmt.Errorf("gnumap: memory mode %v is not serializable", acc.Mode())
	}
	data, err := st.State()
	if err != nil {
		return err
	}
	_, err = ckpt.WriteTo(w, &ckpt.Checkpoint{
		Fingerprint:   p.fingerprint(),
		ReadsConsumed: p.consumed,
		Mapped:        p.cum.Mapped,
		Unmapped:      p.cum.Unmapped,
		Locations:     p.cum.Locations,
		State:         data,
	})
	return err
}

// LoadState restores state saved by SaveState into a pipeline built
// with the same reference and memory mode, replacing any accumulation
// done so far. Further MapReads calls continue from the restored state.
// The declared payload length is validated against the reference size
// before allocation; damaged, legacy, or mismatched blobs surface as
// typed errors (ErrNotCheckpoint, ErrCheckpointTruncated,
// ErrCheckpointChecksum, ErrCheckpointMismatch, ...).
func (p *Pipeline) LoadState(r io.Reader) error {
	st, ok := p.acc.(genome.Stateful)
	if !ok {
		return fmt.Errorf("gnumap: memory mode %v is not serializable", p.acc.Mode())
	}
	cp, err := ckpt.ReadFrom(r, ckpt.MaxPayloadFor(p.ref.Len()))
	if err != nil {
		return fmt.Errorf("gnumap: load state: %w", err)
	}
	if err := p.fingerprint().Check(cp.Fingerprint); err != nil {
		return fmt.Errorf("gnumap: load state: %w", err)
	}
	if err := st.LoadStateBytes(cp.State); err != nil {
		return err
	}
	p.cum = MapStats{Mapped: cp.Mapped, Unmapped: cp.Unmapped, Locations: cp.Locations}
	p.consumed = cp.ReadsConsumed
	return nil
}

// ReferenceLength returns the total reference length.
func (p *Pipeline) ReferenceLength() int { return p.ref.Len() }

// AccumulatorMemoryBytes reports the accumulator footprint (the
// paper's Table II quantity).
func (p *Pipeline) AccumulatorMemoryBytes() int64 { return p.acc.MemoryBytes() }

// IndexMemoryBytes reports the k-mer index footprint.
func (p *Pipeline) IndexMemoryBytes() int64 { return p.eng.IndexMemoryBytes() }

// SeedIndex is a candidate-generating seed index (the direct k<=14
// table or the frequency-capped large-seed index). Pass one via
// Options.Engine.SeedIndex to skip the per-run index build.
type SeedIndex = kmer.SeedIndex

// LargeSeedIndex is the SNAP-style frequency-capped index for seed
// lengths above kmer.MaxDirectK; it is the only variant that persists
// to disk.
type LargeSeedIndex = kmer.LargeIndex

// SeedIndexInfo describes a persisted seed-index file's header.
type SeedIndexInfo = kmer.IndexInfo

// BuildSeedIndex builds a seed index of length seedLen over the
// concatenated reference: the direct table for seedLen <= 14, the
// large-seed index above.
func BuildSeedIndex(reference []*Contig, seedLen int) (SeedIndex, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, err
	}
	return kmer.Build(ref.Seq(), seedLen)
}

// SaveSeedIndex atomically persists a large-seed index for the given
// reference; the file records the reference SHA-256 and length so
// OpenSeedIndex can refuse an index built for different data.
func SaveSeedIndex(path string, ix *LargeSeedIndex, reference []*Contig) (int64, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return 0, err
	}
	return kmer.WriteIndexFile(path, ix, ref.Digest(), int64(ref.Len()))
}

// OpenSeedIndex memory-maps a persisted seed index, pinning it to the
// given reference (kmer.ErrRefMismatch when the file was built for
// other data). Close the index after the last pipeline using it.
func OpenSeedIndex(path string, reference []*Contig) (*LargeSeedIndex, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, err
	}
	return kmer.LoadIndexFile(path, kmer.LoadOptions{
		RefDigest: ref.Digest(), RefLen: int64(ref.Len()),
	})
}

// ReadSeedIndexInfo reads a persisted index's validated header without
// loading its sections.
func ReadSeedIndexInfo(path string) (SeedIndexInfo, error) {
	return kmer.ReadIndexInfo(path)
}

// PHMMParams is the Pair-HMM parameter set (transitions and the match
// emission matrix). Set Options.Engine.PHMM to override the defaults,
// e.g. with parameters fitted by FitPHMM.
type PHMMParams = phmm.Params

// DefaultPHMMParams returns the paper-default parameter set.
func DefaultPHMMParams() PHMMParams { return phmm.DefaultParams() }

// FitPHMM estimates Pair-HMM parameters from the data itself: it maps
// the given reads, keeps confidently uniquely mapped ones as training
// alignments, and runs Baum-Welch (EM) from the default parameters.
// maxPairs bounds the training set (0 = all confident reads; a few
// hundred suffice). The fitted parameters plug into
// Options.Engine.PHMM for a subsequent mapping pipeline.
func FitPHMM(reference []*Contig, reads []*Read, maxPairs int) (PHMMParams, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return PHMMParams{}, err
	}
	eng, err := core.NewEngine(ref, core.Config{})
	if err != nil {
		return PHMMParams{}, err
	}
	pairs, err := eng.CollectTrainingPairs(reads, maxPairs, 0.99)
	if err != nil {
		return PHMMParams{}, err
	}
	res, err := phmm.Fit(pairs, phmm.DefaultParams(), phmm.TrainOptions{})
	if err != nil {
		return PHMMParams{}, err
	}
	return res.Params, nil
}

// ReadStats summarizes a read set (see internal/qc).
type ReadStats = qc.ReadStats

// CoverageStats summarizes accumulated mapping depth (see internal/qc).
type CoverageStats = qc.CoverageStats

// SummarizeReads computes QC statistics for a read set.
func SummarizeReads(reads []*Read) ReadStats {
	return qc.SummarizeReads(reads)
}

// CoverageStats summarizes the pipeline's accumulated depth after
// MapReads.
func (p *Pipeline) CoverageStats() CoverageStats {
	acc, err := p.combined()
	if err != nil {
		// Combine only fails on layout mismatches a Pipeline cannot
		// produce; fall back to the lazily-combining wrapper.
		acc = p.acc
	}
	return qc.SummarizeCoverage(acc, 64)
}

// Allele is a called base channel (A, C, G, T, or gap).
type Allele = dna.Channel

// AlleleOf converts a truth SNP's base code to the channel type used
// by SNPCall, for comparing calls against planted alleles.
func AlleleOf(base dna.Code) Allele { return dna.Channel(base) }

// Evaluate scores calls against a planted truth set.
func Evaluate(calls []SNPCall, truth []TruthSNP) Metrics {
	return snp.Evaluate(calls, truth)
}

// LoadReference reads a FASTA reference file.
func LoadReference(path string) ([]*Contig, error) {
	return fasta.ReadFile(path)
}

// LoadReads reads a FASTQ file.
func LoadReads(path string, enc QualityEncoding) ([]*Read, error) {
	return fastq.ReadFile(path, enc)
}

// ReadSource yields reads one at a time until io.EOF — the input of
// MapReadsFrom and RunCluster.
type ReadSource = fastq.Source

// ReadStream is a streaming FASTQ file handle (a ReadSource plus
// Close; .gz transparent). Close publishes streamed volume to
// ProcessMetrics.
type ReadStream = fastq.File

// OpenReads opens a FASTQ file (or .gz) for streaming instead of
// materializing it. The caller must Close it.
func OpenReads(path string, enc QualityEncoding) (*ReadStream, error) {
	return fastq.Open(path, enc)
}

// SliceReadSource adapts an in-memory read slice to a ReadSource.
func SliceReadSource(reads []*Read) ReadSource {
	return fastq.SliceSource(reads)
}

// WriteReference writes contigs as FASTA.
func WriteReference(path string, contigs []*Contig) error {
	return fasta.WriteFile(path, contigs)
}

// WriteReads writes reads as FASTQ.
func WriteReads(path string, reads []*Read, enc QualityEncoding) error {
	return fastq.WriteFile(path, reads, enc)
}

// SimConfig configures SimulateDataset.
type SimConfig struct {
	// GenomeLength is the reference length (required).
	GenomeLength int
	// GC is the target GC content (default 0.41).
	GC float64
	// TandemRepeatFraction / DispersedRepeatFraction plant repeat
	// structure (default none).
	TandemRepeatFraction    float64
	DispersedRepeatFraction float64
	// SNPCount plants this many evenly spaced SNPs (required).
	SNPCount int
	// HetFraction makes this share of SNPs heterozygous; non-zero
	// implies a diploid individual.
	HetFraction float64
	// ReadLength (default 62, the paper's) and Coverage (default 12)
	// control sequencing.
	ReadLength int
	Coverage   float64
	// ErrStart/ErrEnd set the Illumina-like error ramp (defaults
	// 0.002 → 0.02).
	ErrStart, ErrEnd float64
	// Seed drives all randomness.
	Seed int64
}

// Dataset is a complete simulated experiment.
type Dataset struct {
	// Reference is the unmutated reference the mapper sees.
	Reference []*Contig
	// Truth is the planted SNP catalog (positions are global, which
	// for the single simulated contig equals contig-relative).
	Truth []TruthSNP
	// Reads are sequenced from the mutated individual.
	Reads []*Read
}

// SimulateDataset builds a reference, plants SNPs, and sequences reads
// from the mutated individual — the reproduction's stand-in for the
// paper's hg19-chrX + dbSNP + MetaSim setup.
func SimulateDataset(cfg SimConfig) (*Dataset, error) {
	g, err := simulate.Genome(simulate.GenomeConfig{
		Length:                  cfg.GenomeLength,
		GC:                      cfg.GC,
		TandemRepeatFraction:    cfg.TandemRepeatFraction,
		DispersedRepeatFraction: cfg.DispersedRepeatFraction,
		Seed:                    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cat, err := simulate.Catalog(g, simulate.CatalogConfig{
		Count:       cfg.SNPCount,
		HetFraction: cfg.HetFraction,
		Seed:        cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	ind, err := simulate.Mutate(g, cat, cfg.HetFraction > 0)
	if err != nil {
		return nil, err
	}
	readLen := cfg.ReadLength
	if readLen == 0 {
		readLen = 62
	}
	coverage := cfg.Coverage
	if coverage == 0 {
		coverage = 12
	}
	reads, err := simulate.Reads(ind, simulate.ReadConfig{
		Length:   readLen,
		Coverage: coverage,
		ErrStart: cfg.ErrStart,
		ErrEnd:   cfg.ErrEnd,
		Seed:     cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Reference: []*Contig{{Name: "sim", Seq: g}},
		Truth:     cat,
		Reads:     reads,
	}, nil
}

// BaselineConfig tunes the comparator pipelines (see
// internal/baseline.Config; zero value = MAQ-flavoured defaults).
type BaselineConfig = baseline.Config

// BaselineResult is the comparator outcome.
type BaselineResult = baseline.Result

// The baseline consensus models.
const (
	MAQConsensus  = baseline.MAQConsensus
	SoapConsensus = baseline.SoapConsensus
)

// RunBaseline maps reads and calls SNPs with the comparator pipeline
// (MAQ-like by default; set Consensus to SoapConsensus for the Bayesian
// genotype caller). This is the paper's Table I comparison system,
// exposed so downstream users can reproduce the contrast.
func RunBaseline(reference []*Contig, reads []*Read, cfg BaselineConfig) (*BaselineResult, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, err
	}
	return baseline.Run(ref, reads, cfg)
}

// SimulateGenome generates just a reference (no SNPs, no reads) for
// hand-constructed scenarios — e.g. planting an exact duplication
// before sequencing. Only GenomeLength, GC, repeat fractions, and Seed
// of the config are used.
func SimulateGenome(cfg SimConfig) ([]*Contig, error) {
	g, err := simulate.Genome(simulate.GenomeConfig{
		Length:                  cfg.GenomeLength,
		GC:                      cfg.GC,
		TandemRepeatFraction:    cfg.TandemRepeatFraction,
		DispersedRepeatFraction: cfg.DispersedRepeatFraction,
		Seed:                    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return []*Contig{{Name: "sim", Seq: g}}, nil
}

// PlantSNPs builds a truth catalog at explicit positions of the
// reference's first contig, with transition-biased alternate alleles.
func PlantSNPs(reference []*Contig, positions []int, seed int64) ([]TruthSNP, error) {
	if len(reference) == 0 {
		return nil, fmt.Errorf("gnumap: empty reference")
	}
	return simulate.CatalogAt(reference[0].Seq, positions, simulate.CatalogConfig{Seed: seed})
}

// SimulateReadsFrom sequences an individual carrying the given truth
// SNPs on the reference's first contig, using the read parameters of
// cfg (ReadLength, Coverage, ErrStart/ErrEnd, HetFraction>0 implies a
// diploid individual, Seed).
func SimulateReadsFrom(reference []*Contig, truth []TruthSNP, cfg SimConfig) ([]*Read, error) {
	if len(reference) == 0 {
		return nil, fmt.Errorf("gnumap: empty reference")
	}
	diploid := false
	for _, s := range truth {
		if s.Het {
			diploid = true
		}
	}
	ind, err := simulate.Mutate(reference[0].Seq, truth, diploid)
	if err != nil {
		return nil, err
	}
	readLen := cfg.ReadLength
	if readLen == 0 {
		readLen = 62
	}
	coverage := cfg.Coverage
	if coverage == 0 {
		coverage = 12
	}
	return simulate.Reads(ind, simulate.ReadConfig{
		Length:   readLen,
		Coverage: coverage,
		ErrStart: cfg.ErrStart,
		ErrEnd:   cfg.ErrEnd,
		Seed:     cfg.Seed + 2,
	})
}

// Transport selects the simulated-cluster transport.
type Transport = cluster.TransportKind

// The cluster transports.
const (
	Channels = cluster.Channels
	TCP      = cluster.TCP
)

// SplitMode selects the distributed parallelization strategy.
type SplitMode int

// The paper's two MPI modes (§VI Step 1).
const (
	// ReadSplit replicates the genome on every node and partitions the
	// reads ("shared memory" series of Figure 4).
	ReadSplit SplitMode = iota
	// GenomeSplit partitions the genome and shows every node all reads
	// ("spread memory" series of Figure 4).
	GenomeSplit
)

// String names the split mode.
func (m SplitMode) String() string {
	switch m {
	case ReadSplit:
		return "read-split"
	case GenomeSplit:
		return "genome-split"
	default:
		return fmt.Sprintf("SplitMode(%d)", int(m))
	}
}

// RunCluster maps the reads src yields and calls SNPs on a simulated
// cluster of the given size, returning the calls and global mapping
// statistics. Pass SliceReadSource(reads) for an in-memory read set.
//
// In ReadSplit mode rank 0 owns the source and deals fixed-size batches
// round-robin to the ranks under a bounded credit window, so
// cluster-wide resident reads stay capped by Engine.{Batch,Queue,
// Workers}; the reduction happens at rank 0, which also calls SNPs.
// Runs that need every read on every rank materialize the source once
// first: GenomeSplit (every rank maps all reads) and fault-tolerant runs
// (OpTimeout > 0 reassigns whole shards, which a stream cannot replay).
//
// In GenomeSplit mode every rank calls SNPs on its genome slice and the
// calls are gathered — except under FDR control, where the per-position
// LRT candidates are gathered to rank 0 and the Benjamini-Hochberg pass
// runs once over the global candidate list (BH thresholds depend on the
// full ranked p-value list, so running it per shard changes the call
// set with the node count). Either way the result is equivalent to a
// single-process run.
func RunCluster(nodes int, transport Transport, mode SplitMode,
	reference []*Contig, src ReadSource, opts Options) ([]SNPCall, MapStats, error) {

	calls, stats, _, err := runCluster(nodes, transport, mode, reference, src, opts, false)
	return calls, stats, err
}

// RunClusterReport is RunCluster with per-rank observability: every
// rank records its mapping, calling, and communication activity into
// its own registry; at the end the snapshots are gathered at rank 0
// (tolerating dead ranks on fault-tolerant runs) and merged into a
// MetricsReport alongside the process-wide I/O metrics.
func RunClusterReport(nodes int, transport Transport, mode SplitMode,
	reference []*Contig, src ReadSource, opts Options) ([]SNPCall, MapStats, *MetricsReport, error) {

	return runCluster(nodes, transport, mode, reference, src, opts, true)
}

// materializeReads drains a source into a slice (for cluster modes that
// need random access to every read).
func materializeReads(src ReadSource) ([]*Read, error) {
	var reads []*Read
	for {
		rd, err := src.Next()
		if errors.Is(err, io.EOF) {
			return reads, nil
		}
		if err != nil {
			return nil, err
		}
		reads = append(reads, rd)
	}
}

// runCluster executes a cluster run. Streamed read-split runs leave the
// reads in src, owned by rank 0; every other run drains src into reads.
func runCluster(nodes int, transport Transport, mode SplitMode,
	reference []*Contig, src ReadSource, opts Options, withMetrics bool) ([]SNPCall, MapStats, *MetricsReport, error) {

	if src == nil {
		return nil, MapStats{}, nil, fmt.Errorf("gnumap: nil read source")
	}
	if opts.Checkpoint != nil {
		// Checkpoint watermarks count reads dealt from the stream; the
		// materialized runs below (and fault-tolerant shard reassignment)
		// have no stream to watermark, so reject rather than silently run
		// without durability.
		if mode != ReadSplit {
			return nil, MapStats{}, nil, fmt.Errorf("gnumap: checkpointing requires read-split mode, not %v", mode)
		}
		if opts.Cluster.OpTimeout > 0 || opts.Cluster.Fault != nil {
			return nil, MapStats{}, nil, fmt.Errorf("gnumap: checkpointing is incompatible with fault-tolerant and chaos cluster runs")
		}
	}
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, MapStats{}, nil, err
	}
	var reads []*Read
	if mode != ReadSplit || opts.Cluster.OpTimeout > 0 {
		if reads, err = materializeReads(src); err != nil {
			return nil, MapStats{}, nil, err
		}
	}
	var ckr *clusterCkpt
	if opts.Checkpoint != nil {
		ckr, err = prepareClusterCkpt(ref, src, opts)
		if err != nil {
			return nil, MapStats{}, nil, err
		}
	}
	var calls []SNPCall
	var stats MapStats
	collect := make([][]SNPCall, nodes)
	statsCh := make(chan MapStats, nodes)
	// Written only by rank 0's node goroutine; read after RunWithConfig
	// returns (which waits all goroutines out).
	var gotSnaps []MetricsSnapshot
	var gotDead []int

	runCfg := cluster.RunConfig{
		Kind:      transport,
		OpTimeout: opts.Cluster.OpTimeout,
		Heartbeat: opts.Cluster.Heartbeat,
		Fault:     opts.Cluster.Fault,
	}
	err = cluster.RunWithConfig(nodes, runCfg, func(c *cluster.Comm) error {
		nodeOpts := opts
		var reg *obs.Registry
		if withMetrics {
			reg = obs.NewRegistry()
			nodeOpts.Engine.Metrics = reg
			nodeOpts.Caller.Metrics = reg
			c.SetMetrics(reg)
		}
		if err := runClusterNode(c, mode, ref, reads, src, nodeOpts, ckr, collect, statsCh); err != nil {
			return err
		}
		if withMetrics {
			c.PublishStats()
			snaps, dead, err := core.GatherMetrics(c, reg.Snapshot(c.Rank()))
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				gotSnaps, gotDead = snaps, dead
			}
		}
		return nil
	})
	if err != nil {
		return nil, MapStats{}, nil, err
	}
	close(statsCh)
	for st := range statsCh {
		stats = st
	}
	for _, cs := range collect {
		calls = append(calls, cs...)
	}
	var report *MetricsReport
	if withMetrics {
		// Rank-independent activity (file I/O) rides along as a
		// ProcessRank snapshot when there is any.
		ioSnap := obs.Default().Snapshot(obs.ProcessRank)
		if len(ioSnap.Counters)+len(ioSnap.Gauges)+len(ioSnap.Histograms) > 0 {
			gotSnaps = append(gotSnaps, ioSnap)
		}
		report, err = obs.NewReport(gotSnaps, unionInts(gotDead, stats.LostRanks))
		if err != nil {
			return nil, MapStats{}, nil, err
		}
	}
	return calls, stats, report, nil
}

// runClusterNode is one rank's work: map, then call (or collect LRT
// candidates for the global FDR pass).
func runClusterNode(c *cluster.Comm, mode SplitMode, ref *genome.Reference,
	reads []*Read, src ReadSource, opts Options, ckr *clusterCkpt, collect [][]SNPCall, statsCh chan MapStats) error {

	switch mode {
	case ReadSplit:
		var acc genome.Accumulator
		var st MapStats
		var err error
		if c.OpTimeout() > 0 {
			// Fault-tolerant: shards are replayed from the materialized reads.
			acc, st, err = core.RunReadSplit(c, ref, reads, opts.Memory, opts.Engine)
		} else {
			var ck *core.StreamCkpt
			var cw *ckptCommitter
			if c.Rank() != 0 {
				src = nil // only rank 0 owns the stream
			} else {
				ck, cw = streamCkptFor(ckr, opts.Engine.Metrics)
			}
			acc, st, err = core.RunReadSplitStreamCkpt(c, ref, src, opts.Memory, opts.Engine, ck)
			if cw != nil {
				if ferr := cw.Flush(); ferr != nil && (err == nil || errors.Is(err, ErrStopped)) {
					err = fmt.Errorf("gnumap: checkpoint commit: %w", ferr)
				}
			}
		}
		if err != nil {
			// ErrStopped propagates: the final checkpoint is on disk and
			// the caller decides whether to call on partial state.
			return err
		}
		if c.Rank() == 0 {
			if ckr != nil {
				// Fold the resumed base back in so the reported totals
				// cover the whole job, not just this invocation.
				st.Mapped += ckr.base.Mapped
				st.Unmapped += ckr.base.Unmapped
				st.Locations += ckr.base.Locations
			}
			statsCh <- st
			cs, _, err := snp.CallAll(ref, acc, opts.Caller)
			if err != nil {
				return err
			}
			collect[0] = cs
		}
		return nil
	case GenomeSplit:
		acc, lo, hi, st, err := core.RunGenomeSplit(c, ref, reads, opts.Memory, opts.Engine)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			statsCh <- st
		}
		if opts.Caller.UseFDR {
			// The Benjamini-Hochberg threshold for each hypothesis
			// depends on the rank of its p-value in the FULL sorted list.
			// Running CallRange per shard applied BH with shard-local
			// lists and shard-local n, so genome-split call sets diverged
			// from single-process runs. Gather the candidates and apply
			// one global BH pass at rank 0 instead.
			cands, _, err := snp.CollectRangeParallel(ref, acc, lo, lo, hi, opts.Caller)
			if err != nil {
				return err
			}
			all, err := c.Gather(0, cands)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				var merged []snp.Candidate
				for r, v := range all {
					part, ok := v.([]snp.Candidate)
					if !ok {
						return fmt.Errorf("gnumap: rank %d sent candidate payload %T", r, v)
					}
					merged = append(merged, part...)
				}
				cs, _, err := snp.FinalizeCalls(merged, opts.Caller)
				if err != nil {
					return err
				}
				collect[0] = cs
			}
			return nil
		}
		cs, _, err := snp.CallRange(ref, acc, lo, lo, hi, opts.Caller)
		if err != nil {
			return err
		}
		collect[c.Rank()] = cs
		return nil
	default:
		return fmt.Errorf("gnumap: unknown split mode %d", int(mode))
	}
}

// unionInts merges two int lists (duplicates removed; order left to
// the consumer, which sorts).
func unionInts(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, xs := range [2][]int{a, b} {
		for _, x := range xs {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	return out
}
