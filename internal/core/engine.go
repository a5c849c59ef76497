// Package core is the GNUMAP-SNP mapping engine: the paper's three-step
// pipeline (k-mer seeding → probabilistic Pair-HMM marginal alignment →
// online accumulation of per-position nucleotide probabilities), with
// the shared-memory worker-pool parallelization, and — in cluster.go —
// the two MPI-style distributed modes (read-split and genome-split).
//
// The engine's distinguishing behaviours, which the ablation benches
// isolate, are:
//
//  1. quality-weighted PHMM emissions (reads are PWMs, not strings);
//  2. marginal (forward-backward) accumulation over all alignments of a
//     read at a location, rather than one best path;
//  3. multi-location posterior weighting: a read mapping plausibly to
//     several locations contributes to all of them, weighted by each
//     location's share of the total alignment likelihood.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/kmer"
	"gnumap/internal/obs"
	"gnumap/internal/phmm"
	"gnumap/internal/pwm"
)

// Config tunes the engine. Zero values select paper defaults.
type Config struct {
	// PHMM holds the Pair-HMM parameters (default phmm.DefaultParams).
	PHMM phmm.Params
	// AlignMode selects Global (paper-faithful windows) or SemiGlobal
	// (padded windows, the default).
	AlignMode phmm.Mode
	// K is the seed k-mer length (default kmer.DefaultK = 10). Values
	// above kmer.MaxDirectK select the frequency-capped large-seed
	// index (SNAP-style) instead of the direct offset table.
	K int
	// SeedIndex, when non-nil, is a prebuilt (or file-loaded) seed
	// index over the FULL reference, adopted instead of building one at
	// engine construction; its K() and SeqLen() must match the config
	// and reference. Genome-split nodes index their own slice and
	// ignore it.
	SeedIndex kmer.SeedIndex
	// Pad is the extra genome context on each side of a candidate
	// window in SemiGlobal mode (default 8).
	Pad int
	// Band is the diagonal band width (in DP cells) of the banded
	// Pair-HMM kernel. 0 ("auto") picks 2*Pad+2 in SemiGlobal mode —
	// the seed diagonal is known to within the window padding plus the
	// candidate-merge slack — and the full kernel in Global mode.
	// Negative forces the exact full-rectangle kernel.
	Band int
	// Workers is the shared-memory worker count (default GOMAXPROCS).
	Workers int
	// Batch is the number of reads per unit of worker-pool work: the
	// producer batch size of the streaming pipeline that every mapping
	// call runs through (default 64).
	Batch int
	// Queue bounds the streaming pipeline's work queue, in batches
	// (default 4). MapReadsFrom recycles (Queue + Workers) batch
	// buffers through a free list, so a streaming run never holds more
	// than (Queue + Workers) · Batch reads resident regardless of the
	// input size — the producer blocks (backpressure) once every
	// buffer is filled or in flight.
	Queue int
	// Attribution selects how posterior mass maps to base channels
	// (default phmm.ByCall, the paper's formulation).
	Attribution phmm.Attribution
	// MaxCandidates caps candidate locations per strand (default 8).
	MaxCandidates int
	// MinSeedVotes drops candidate diagonals with fewer seed hits
	// (default 2; 1 for very short reads).
	MinSeedVotes int
	// MinVoteFraction drops candidates whose seed votes are below this
	// fraction of the read's best candidate across both strands
	// (default 0.25). True multi-mapping locations retain near-equal
	// votes and survive; spurious diagonals with a couple of chance
	// seed hits are skipped before the expensive PHMM.
	MinVoteFraction float64
	// MaxBucket masks seed k-mers occurring more often than this in
	// the reference (default 1024).
	MaxBucket int
	// MinPosterior drops mapping locations carrying less than this
	// share of a read's total alignment likelihood (default 0.01).
	MinPosterior float64
	// MinLocLogLik rejects individual alignments whose per-base
	// log-likelihood is below this (default -2.0; random 62-bp
	// alignments score far lower, true mappings far higher). It is
	// the engine's "does this read map here at all" filter.
	MinLocLogLik float64
	// PhmmBatch is the lane width of the batched wavefront Pair-HMM
	// kernel: a read's same-shape candidate windows are swept together,
	// up to this many per phmm.AlignBatch call, with scalar AlignBanded
	// picking up odd-shaped and leftover candidates. Batched lanes are
	// bit-identical to scalar calls, so this is purely a throughput
	// knob. 0 selects the default (DefaultPhmmBatch); 1 or negative
	// disables batching. ViterbiOnly mode always uses the scalar path.
	PhmmBatch int
	// ViterbiOnly switches accumulation to the single best path per
	// location (ablation of the marginal alignment).
	ViterbiOnly bool
	// IgnoreQualities treats every read as perfectly called (one-hot
	// PWM rows), disabling the paper's quality-weighted emission
	// p*(i,j) (ablation of the PWM extension).
	IgnoreQualities bool
	// BestHitOnly keeps only the highest-likelihood location per read
	// (ablation of multi-location posterior weighting).
	BestHitOnly bool
	// Accum selects how mapping workers share the accumulator: striped
	// locks (memory-tight), per-worker lock-free shards (contention-
	// free), or the default auto heuristic — sharded iff Workers > 1
	// and (Workers+1) genome-state copies fit AccumMemBudget. The
	// strategy takes effect for accumulators built via NewAccumulator;
	// the worker pools shard any genome.ShardProvider handed to them.
	Accum AccumStrategy
	// AccumMemBudget bounds the auto strategy's total accumulator
	// memory in bytes (default DefaultAccumMemBudget, 1 GiB).
	AccumMemBudget int64
	// Metrics, when non-nil, receives the engine's stage timers and
	// counters: map.seed.seconds (PWM build + candidate lookup),
	// map.align.seconds (Pair-HMM over all of a read's candidates),
	// map.accum.seconds (accumulator updates), map.read.seconds
	// (whole-read latency), plus map.candidates / map.alignments /
	// map.mapped / map.unmapped / map.locations and phmm.cells (DP
	// cells computed). Seed selectivity is tracked by map.seed.hits
	// (index positions voted), map.seed.masked (read seeds dropped by
	// MaxBucket), the map.candidates.per.read histogram, and the
	// index.bytes gauge. Nil disables instrumentation; the hot path
	// then pays only a pointer check.
	Metrics *obs.Registry
}

// DefaultPhmmBatch is the default lane width of the batched wavefront
// Pair-HMM kernel — the width the amd64 SIMD sweep is specialized for.
const DefaultPhmmBatch = 8

func (c Config) withDefaults() Config {
	zero := phmm.Params{}
	if c.PHMM == zero {
		c.PHMM = phmm.DefaultParams()
	}
	if c.K == 0 {
		if c.SeedIndex != nil {
			c.K = c.SeedIndex.K()
		} else {
			c.K = kmer.DefaultK
		}
	}
	if c.Pad == 0 {
		c.Pad = 8
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.Queue == 0 {
		c.Queue = 4
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 8
	}
	if c.MinSeedVotes == 0 {
		c.MinSeedVotes = 2
	}
	if c.MaxBucket == 0 {
		c.MaxBucket = 1024
	}
	if c.MinPosterior == 0 {
		c.MinPosterior = 0.01
	}
	if c.MinVoteFraction == 0 {
		c.MinVoteFraction = 0.25
	}
	if c.MinLocLogLik == 0 {
		c.MinLocLogLik = -2.0
	}
	if c.PhmmBatch == 0 {
		c.PhmmBatch = DefaultPhmmBatch
	}
	if c.AccumMemBudget == 0 {
		c.AccumMemBudget = DefaultAccumMemBudget
	}
	return c
}

// workerTarget resolves the accumulator one worker goroutine should
// write through: a private lock-free shard when the accumulator is
// sharded, the shared (striped) accumulator otherwise.
func workerTarget(acc genome.Accumulator) genome.Accumulator {
	if sp, ok := acc.(genome.ShardProvider); ok {
		return sp.WorkerShard()
	}
	return acc
}

// effectiveBand resolves the Band knob into the width passed to
// phmm.AlignBanded (0 there means "full kernel"). Call only after
// withDefaults, since auto mode depends on Pad.
func (c Config) effectiveBand() int {
	switch {
	case c.Band > 0:
		return c.Band
	case c.Band < 0:
		return 0
	case c.AlignMode == phmm.SemiGlobal:
		return 2*c.Pad + 2
	default:
		// Global windows are exact-size and unpadded; an indel anywhere
		// shifts the tail off any narrow diagonal, so auto keeps the
		// full kernel.
		return 0
	}
}

// Resolved returns the configuration with every defaulted knob filled
// in — the effective values a run actually uses. Checkpoint
// fingerprints hash the resolved form so "zero value" and "explicit
// default" never spuriously mismatch.
func (c Config) Resolved() Config { return c.withDefaults() }

// EffectiveBand resolves the Band knob (including auto mode) into the
// concrete band width a run uses.
func (c Config) EffectiveBand() int { return c.withDefaults().effectiveBand() }

// Stats counts mapping outcomes.
type Stats struct {
	// Mapped and Unmapped count reads; Locations counts accepted
	// (read, location) pairs — Locations/Mapped > 1 indicates
	// multi-mapping reads contributing to several loci.
	Mapped, Unmapped, Locations int64
	// LostRanks lists cluster ranks that died during a fault-tolerant
	// read-split run; their shards were reassigned to survivors, so the
	// counts above still cover every read. Empty on healthy runs.
	LostRanks []int
}

// Degraded reports whether the run lost (and recovered from) ranks.
func (s Stats) Degraded() bool { return len(s.LostRanks) > 0 }

// add merges another Stats (used when aggregating across nodes).
// LostRanks is the union of both sides (deduped, sorted): dropping it
// here silently cleared Degraded() whenever per-node stats were folded
// together, hiding a degraded run from the caller.
func (s *Stats) add(o Stats) {
	s.Mapped += o.Mapped
	s.Unmapped += o.Unmapped
	s.Locations += o.Locations
	s.LostRanks = unionRanks(s.LostRanks, o.LostRanks)
}

// unionRanks merges two rank lists into a sorted, deduplicated union.
// Returns nil when both inputs are empty so healthy Stats stay
// comparable to their zero value.
func unionRanks(a, b []int) []int {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	seen := make(map[int]bool, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, lists := range [2][]int{a, b} {
		for _, r := range lists {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Ints(out)
	return out
}

// engineMetrics pre-resolves the engine's metric handles once at
// construction so the mapping hot path never touches the registry's
// name map; every update is a single atomic op.
type engineMetrics struct {
	seedSec, alignSec, accumSec, readSec *obs.Histogram
	candidates, alignments, cells        *obs.Counter
	mapped, unmapped, locations          *obs.Counter
	seedHits, seedMasked                 *obs.Counter
	candPerRead                          *obs.Histogram
}

// alignmentsInc is a nil-safe helper for the inner align loop.
func (em *engineMetrics) alignmentsInc() {
	if em != nil {
		em.alignments.Inc()
	}
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		seedSec:    reg.Timer("map.seed.seconds"),
		alignSec:   reg.Timer("map.align.seconds"),
		accumSec:   reg.Timer("map.accum.seconds"),
		readSec:    reg.Timer("map.read.seconds"),
		candidates: reg.Counter("map.candidates"),
		alignments: reg.Counter("map.alignments"),
		cells:      reg.Counter("phmm.cells"),
		mapped:     reg.Counter("map.mapped"),
		unmapped:   reg.Counter("map.unmapped"),
		locations:  reg.Counter("map.locations"),
		seedHits:   reg.Counter("map.seed.hits"),
		seedMasked: reg.Counter("map.seed.masked"),
		candPerRead: reg.Histogram(
			"map.candidates.per.read", obs.CountBuckets),
	}
}

// Engine maps reads against one reference (or reference slice).
type Engine struct {
	cfg Config
	// band is the resolved PHMM band width (cfg.effectiveBand()).
	band int
	ref  *genome.Reference
	idx  kmer.SeedIndex
	// met is nil when Config.Metrics is nil — instrumentation off.
	met *engineMetrics
	// indexOffset is the global position of idx position 0 (non-zero
	// for genome-split nodes indexing a slice).
	indexOffset int
	// ownLo/ownHi restrict accepted candidate starts to [ownLo, ownHi)
	// in genome-split mode, so a location straddling two nodes' index
	// overlap is claimed by exactly one of them.
	ownLo, ownHi int
	// testMapErr, when non-nil, is consulted before mapping each read.
	// Test-only: it lets the stop-latch and streaming error paths
	// inject deterministic per-read failures.
	testMapErr func(*fastq.Read) error
	// tracker, when non-nil, counts accumulator writes per genome
	// region so the incremental caller can re-sweep only regions that
	// changed between quiesce points.
	tracker *genome.RegionTracker
}

// SetRegionTracker registers a per-region write tracker: every accepted
// accumulator contribution also touches the tracker. Set it before
// mapping starts; nil disables tracking.
func (e *Engine) SetRegionTracker(t *genome.RegionTracker) { e.tracker = t }

// NewEngine indexes the full reference.
func NewEngine(ref *genome.Reference, cfg Config) (*Engine, error) {
	if ref == nil || ref.Len() == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	return newEngineSlice(ref, 0, ref.Len(), cfg)
}

// newEngineSlice indexes only global positions [lo, hi) of the
// reference (genome-split mode).
func newEngineSlice(ref *genome.Reference, lo, hi int, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.PHMM.Validate(); err != nil {
		return nil, err
	}
	if ref == nil || ref.Len() == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	if lo < 0 || hi > ref.Len() || lo >= hi {
		return nil, fmt.Errorf("core: slice [%d,%d) of reference length %d", lo, hi, ref.Len())
	}
	var idx kmer.SeedIndex
	if cfg.SeedIndex != nil && lo == 0 && hi == ref.Len() {
		if cfg.SeedIndex.K() != cfg.K {
			return nil, fmt.Errorf("core: seed index k=%d, config k=%d", cfg.SeedIndex.K(), cfg.K)
		}
		if cfg.SeedIndex.SeqLen() != ref.Len() {
			return nil, fmt.Errorf("core: seed index covers %d bases, reference has %d",
				cfg.SeedIndex.SeqLen(), ref.Len())
		}
		idx = cfg.SeedIndex
	} else {
		built, err := kmer.Build(ref.Seq()[lo:hi], cfg.K)
		if err != nil {
			return nil, err
		}
		idx = built
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("index.bytes").Set(float64(idx.MemoryBytes()))
	}
	return &Engine{
		cfg: cfg, band: cfg.effectiveBand(), met: newEngineMetrics(cfg.Metrics),
		ref: ref, idx: idx, indexOffset: lo, ownLo: 0, ownHi: ref.Len(),
	}, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// IndexMemoryBytes reports the k-mer index footprint.
func (e *Engine) IndexMemoryBytes() int64 { return e.idx.MemoryBytes() }

// location is one accepted mapping of a read.
type location struct {
	// windowStart is the global position of contribs[0].
	windowStart int
	logLik      float64
	contribs    []genome.Vec
	// minus marks a reverse-strand alignment.
	minus bool
	// windowLen is the candidate window length (for re-alignment when
	// a concrete path is needed, e.g. SAM output).
	windowLen int
}

// scoredCand pairs a candidate with its source strand (0 = forward,
// 1 = reverse complement).
type scoredCand struct {
	sc   int
	cand kmer.Candidate
}

// pendingAlign is one candidate window waiting for the batched kernel:
// the alignment inputs plus, after the flush, the outcome. Keeping the
// outcome on the pending entry lets flushPending sweep batches in
// whatever grouping is efficient and still emit accepted locations in
// the original candidate order — so softmax weighting and accumulation
// see the exact float sequence the scalar path produces.
type pendingAlign struct {
	p           *pwm.Matrix
	window      dna.Seq
	windowStart int
	readLen     int
	diag        int
	minus       bool
	done        bool
	accepted    bool
	loc         location
}

// mapper holds per-worker scratch state. All of it is reused across
// mapRead calls so the steady-state mapping hot path performs no heap
// allocations.
type mapper struct {
	e       *Engine
	aligner *phmm.Aligner
	// batch is the wavefront kernel, nil when batching is disabled
	// (PhmmBatch < 2 or ViterbiOnly); batchWidth is its lane cap.
	batch      *phmm.BatchAligner
	batchWidth int
	// met aliases e.met; lastCells tracks the cumulative DP cell count
	// across both kernels so each read publishes only its delta.
	met       *engineMetrics
	lastCells int64
	locs      []location
	totals    []float64
	// Per-read scratch.
	fwdPWM, revPWM pwm.Matrix
	candBuf        kmer.CandidateBuf
	scored         []scoredCand
	wbuf           []float64
	// Batched-alignment scratch: the read's pending candidate windows,
	// the (shape, diag) group index, and the lane input views.
	pending []pendingAlign
	bidx    []int
	bxs     []*pwm.Matrix
	bys     []dna.Seq
	// arena backs the contribs slices of the current read's locations;
	// arenaOff is the bump-pointer, reset at the top of every mapRead.
	arena    []genome.Vec
	arenaOff int
}

// grabContribs carves a zeroed n-element chunk from the arena. Chunks
// stay referenced by m.locs until the next mapRead resets arenaOff, so
// growth swaps in a fresh backing array instead of copying: live chunks
// keep pointing into the old one. After a few reads the arena reaches
// the high-water mark and grabs stop allocating.
func (m *mapper) grabContribs(n int) []genome.Vec {
	if m.arenaOff+n > len(m.arena) {
		sz := 2 * (m.arenaOff + n)
		if sz < 1024 {
			sz = 1024
		}
		m.arena = make([]genome.Vec, sz)
		m.arenaOff = 0
	}
	c := m.arena[m.arenaOff : m.arenaOff+n : m.arenaOff+n]
	m.arenaOff += n
	for j := range c {
		c[j] = genome.Vec{}
	}
	return c
}

func (e *Engine) newMapper() (*mapper, error) {
	al, err := phmm.NewAligner(e.cfg.PHMM, e.cfg.AlignMode)
	if err != nil {
		return nil, err
	}
	m := &mapper{e: e, aligner: al, met: e.met}
	if e.cfg.PhmmBatch >= 2 && !e.cfg.ViterbiOnly {
		ba, err := phmm.NewBatchAligner(e.cfg.PHMM, e.cfg.AlignMode)
		if err != nil {
			return nil, err
		}
		m.batch = ba
		m.batchWidth = e.cfg.PhmmBatch
	}
	return m, nil
}

// mapRead computes the accepted locations of one read with raw
// log-likelihoods; posterior weighting happens in the caller so the
// genome-split mode can normalize globally. The returned slice aliases
// m.locs and is valid until the next mapRead call.
func (m *mapper) mapRead(rd *fastq.Read) ([]location, error) {
	m.locs = m.locs[:0]
	m.arenaOff = 0
	var t0 time.Time
	if m.met != nil {
		t0 = time.Now()
	}
	if err := rd.Validate(); err != nil {
		return nil, nil // malformed read: unmapped, not fatal
	}
	var err error
	if m.e.cfg.IgnoreQualities {
		err = m.fwdPWM.FillSeqUniformError(rd.Seq, 0)
	} else {
		err = m.fwdPWM.FillFromRead(rd)
	}
	if err != nil {
		return nil, nil
	}
	m.revPWM.FillReverseComplementOf(&m.fwdPWM)
	e := m.e
	minVotes := e.cfg.MinSeedVotes
	if len(rd.Seq) < 2*e.cfg.K {
		minVotes = 1
	}
	opts := kmer.CandidateOptions{
		MaxCandidates: e.cfg.MaxCandidates,
		MinVotes:      minVotes,
		MaxBucket:     e.cfg.MaxBucket,
		// SemiGlobal windows are padded, so nearby diagonals (indel
		// shifts) can merge into one candidate; Global windows must
		// start on the exact diagonal.
		Slack: 2,
	}
	pad := e.cfg.Pad
	if e.cfg.AlignMode == phmm.Global {
		pad = 0
		opts.Slack = 0
	}
	strands := [2]*pwm.Matrix{&m.fwdPWM, &m.revPWM}
	// Collect candidates from both strands first so the vote filter is
	// relative to the read's best location overall. The CandidatesInto
	// result aliases m.candBuf and is invalidated by the second strand's
	// query, so candidates are copied out as they stream.
	cands := m.scored[:0]
	bestVotes := int32(0)
	var seedHits, seedMasked int64
	for si, p := range strands {
		for _, cand := range e.idx.CandidatesInto(p.Calls(), opts, &m.candBuf) {
			cands = append(cands, scoredCand{sc: si, cand: cand})
			if cand.Votes > bestVotes {
				bestVotes = cand.Votes
			}
		}
		// Stats are reset per CandidatesInto call: read them per strand.
		seedHits += m.candBuf.Stats.Hits
		seedMasked += m.candBuf.Stats.Masked
	}
	m.scored = cands
	// The seed phase ends here: PWM construction plus k-mer candidate
	// lookup on both strands. Everything below is the align phase.
	var tSeed time.Time
	if m.met != nil {
		tSeed = time.Now()
		m.met.seedSec.ObserveDuration(tSeed.Sub(t0))
		m.met.candidates.Add(int64(len(cands)))
		m.met.seedHits.Add(seedHits)
		m.met.seedMasked.Add(seedMasked)
		m.met.candPerRead.Observe(float64(len(cands)))
	}
	voteCut := int32(e.cfg.MinVoteFraction * float64(bestVotes))
	for _, cs := range cands {
		cand := cs.cand
		minus := cs.sc == 1
		if cand.Votes < voteCut {
			continue
		}
		globalStart := int(cand.Start) + e.indexOffset
		if globalStart < e.ownLo || globalStart >= e.ownHi {
			continue
		}
		winStart := globalStart - pad
		winLen := len(rd.Seq) + 2*pad
		window, clippedStart := e.ref.Window(winStart, winLen)
		if len(window) < len(rd.Seq) && e.cfg.AlignMode == phmm.Global {
			continue
		}
		if len(window) == 0 {
			continue
		}
		// The seed says read position 0 sits at global position
		// globalStart, i.e. window column globalStart-clippedStart
		// (= Pad unless the window was clipped at a genome edge) — the
		// diagonal the banded kernel anchors to.
		diag := globalStart - clippedStart
		if m.batch != nil {
			// Defer to the batched wavefront kernel: same-shape windows
			// are swept together after the candidate loop.
			m.pending = append(m.pending, pendingAlign{
				p: strands[cs.sc], window: window, windowStart: clippedStart,
				readLen: len(rd.Seq), diag: diag, minus: minus,
			})
			continue
		}
		if err := m.alignAt(strands[cs.sc], window, clippedStart, len(rd.Seq), diag, minus); err != nil {
			return nil, err
		}
	}
	if m.batch != nil {
		if err := m.flushPending(); err != nil {
			return nil, err
		}
	}
	if m.met != nil {
		m.met.alignSec.ObserveDuration(time.Since(tSeed))
		c := m.aligner.CellsComputed()
		if m.batch != nil {
			c += m.batch.CellsComputed()
		}
		if c != m.lastCells {
			m.met.cells.Add(c - m.lastCells)
			m.lastCells = c
		}
	}
	return m.locs, nil
}

// flushPending sweeps the read's pending candidate windows through the
// batched kernel: entries are grouped by (window length, diag) — read
// length and band are constant within a read — and each group is swept
// in chunks of at most batchWidth lanes. Chunks of one fall back to the
// scalar kernel (identical results, no batch overhead). Accepted
// locations are then emitted in the original candidate order, keeping
// the downstream softmax and accumulation float sequences bit-identical
// to the unbatched path.
func (m *mapper) flushPending() error {
	pend := m.pending
	for start := range pend {
		if pend[start].done {
			continue
		}
		wlen, diag := len(pend[start].window), pend[start].diag
		idxs := m.bidx[:0]
		for k := start; k < len(pend); k++ {
			if !pend[k].done && len(pend[k].window) == wlen && pend[k].diag == diag {
				idxs = append(idxs, k)
			}
		}
		m.bidx = idxs
		for off := 0; off < len(idxs); off += m.batchWidth {
			end := off + m.batchWidth
			if end > len(idxs) {
				end = len(idxs)
			}
			chunk := idxs[off:end]
			if len(chunk) == 1 {
				if err := m.alignPending(&pend[chunk[0]]); err != nil {
					return err
				}
				continue
			}
			bxs, bys := m.bxs[:0], m.bys[:0]
			for _, k := range chunk {
				bxs = append(bxs, pend[k].p)
				bys = append(bys, pend[k].window)
				m.met.alignmentsInc()
			}
			m.bxs, m.bys = bxs, bys
			results, err := m.batch.AlignBatch(bxs, bys, diag, m.e.band)
			if err != nil {
				return err
			}
			// Results are views into the batch aligner's buffers,
			// invalidated by the next AlignBatch call — finish each lane
			// (filter + contributions into the arena) before moving on.
			for l, k := range chunk {
				pa := &pend[k]
				pa.done = true
				res := &results[l]
				if res.Err != nil {
					continue
				}
				loc, ok, err := m.finishAlignment(res.LogLik, res, pa)
				if err != nil {
					return err
				}
				pa.loc, pa.accepted = loc, ok
			}
		}
	}
	for i := range pend {
		if pend[i].accepted {
			m.locs = append(m.locs, pend[i].loc)
		}
	}
	m.pending = pend[:0]
	return nil
}

// alignPending runs one pending candidate through the scalar kernel —
// the leftover path of flushPending.
func (m *mapper) alignPending(pa *pendingAlign) error {
	pa.done = true
	m.met.alignmentsInc()
	res, err := m.aligner.AlignBanded(pa.p, pa.window, pa.diag, m.e.band)
	if err == phmm.ErrNoAlignment {
		return nil
	}
	if err != nil {
		return err
	}
	loc, ok, err := m.finishAlignment(res.LogLik, res, pa)
	if err != nil {
		return err
	}
	pa.loc, pa.accepted = loc, ok
	return nil
}

// contribSource is the posterior-contribution view shared by the scalar
// Result and a batched lane.
type contribSource interface {
	ContributionsInto(phmm.Attribution, []genome.Vec, []float64) error
}

// finishAlignment applies the per-location acceptance filters and
// extracts contributions — the shared tail of the scalar and batched
// alignment paths.
func (m *mapper) finishAlignment(logLik float64, src contribSource, pa *pendingAlign) (location, bool, error) {
	e := m.e
	if logLik/float64(pa.readLen) < e.cfg.MinLocLogLik {
		return location{}, false, nil
	}
	window := pa.window
	contribs := m.grabContribs(len(window))
	if cap(m.totals) < len(window) {
		m.totals = make([]float64, len(window))
	}
	totals := m.totals[:len(window)]
	if err := src.ContributionsInto(e.cfg.Attribution, contribs, totals); err != nil {
		return location{}, false, err
	}
	any := false
	for j := range contribs {
		if totals[j] > 0.5 {
			// Positions materially covered by the alignment keep
			// their normalized channel vector; lightly grazed window
			// padding (total << 1) is noise and is zeroed.
			any = true
		} else {
			contribs[j] = genome.Vec{}
		}
	}
	if !any {
		return location{}, false, nil
	}
	return location{
		windowStart: pa.windowStart, logLik: logLik, contribs: contribs,
		minus: pa.minus, windowLen: len(window),
	}, true, nil
}

// alignAt aligns a PWM to a window (banded around diag when the engine
// has a band configured) and appends an accepted location.
func (m *mapper) alignAt(p *pwm.Matrix, window dna.Seq, windowStart, readLen, diag int, minus bool) error {
	e := m.e
	if e.cfg.ViterbiOnly {
		return m.viterbiAt(p, window, windowStart, readLen, diag, minus)
	}
	m.met.alignmentsInc()
	res, err := m.aligner.AlignBanded(p, window, diag, e.band)
	if err == phmm.ErrNoAlignment {
		return nil
	}
	if err != nil {
		return err
	}
	pa := pendingAlign{
		p: p, window: window, windowStart: windowStart,
		readLen: readLen, diag: diag, minus: minus,
	}
	loc, ok, err := m.finishAlignment(res.LogLik, res, &pa)
	if err != nil {
		return err
	}
	if ok {
		m.locs = append(m.locs, loc)
	}
	return nil
}

// viterbiAt is the single-best-path ablation: the best alignment's
// matched bases contribute deterministically (probability one each).
func (m *mapper) viterbiAt(p *pwm.Matrix, window dna.Seq, windowStart, readLen, diag int, minus bool) error {
	m.met.alignmentsInc()
	path, err := m.aligner.ViterbiBanded(p, window, diag, m.e.band)
	if err == phmm.ErrNoAlignment {
		return nil
	}
	if err != nil {
		return err
	}
	if path.LogProb/float64(readLen) < m.e.cfg.MinLocLogLik {
		return nil
	}
	contribs := m.grabContribs(len(window))
	i := 0 // read cursor
	j := path.Start - 1
	for _, op := range path.Ops {
		switch op {
		case phmm.OpMatch:
			call := p.Call(i)
			if call.IsConcrete() {
				contribs[j][call] = 1
			}
			i++
			j++
		case phmm.OpInsert:
			i++
		case phmm.OpDelete:
			contribs[j][dna.ChGap] = 1
			j++
		}
	}
	m.locs = append(m.locs, location{
		windowStart: windowStart, logLik: path.LogProb, contribs: contribs,
		minus: minus, windowLen: len(window),
	})
	return nil
}

// weights converts location log-likelihoods to posterior weights with a
// numerically safe softmax; locations below MinPosterior are zeroed and
// the surviving weights are renormalized so each mapped read deposits
// exactly one unit of posterior mass (instead of silently leaking the
// thresholded share). With BestHitOnly, the best location gets weight 1.
// buf, when non-nil with sufficient capacity, backs the returned slice.
func (e *Engine) weights(locs []location, buf []float64) []float64 {
	if cap(buf) < len(locs) {
		buf = make([]float64, len(locs))
	}
	w := buf[:len(locs)]
	if len(locs) == 0 {
		return w
	}
	if e.cfg.BestHitOnly {
		best := 0
		for i := range locs {
			w[i] = 0
			if locs[i].logLik > locs[best].logLik {
				best = i
			}
		}
		w[best] = 1
		return w
	}
	maxLL := math.Inf(-1)
	for i := range locs {
		if locs[i].logLik > maxLL {
			maxLL = locs[i].logLik
		}
	}
	sum := 0.0
	for i := range locs {
		w[i] = math.Exp(locs[i].logLik - maxLL)
		sum += w[i]
	}
	surviving := 0.0
	for i := range w {
		w[i] /= sum
		if w[i] < e.cfg.MinPosterior {
			w[i] = 0
		} else {
			surviving += w[i]
		}
	}
	// The best location always clears any MinPosterior < 1/len(locs)...
	// but guard against a degenerate threshold zeroing everything.
	if surviving > 0 && surviving < 1 {
		inv := 1 / surviving
		for i := range w {
			w[i] *= inv
		}
	}
	return w
}

// consumeRead maps one read and folds its weighted contributions into
// acc — the per-read body of the MapReadsFrom worker loop. Stats fields
// are updated atomically; the accumulator handles its own locking.
func (m *mapper) consumeRead(rd *fastq.Read, acc genome.Accumulator, accOffset int, st *Stats) error {
	met := m.met
	var tRead time.Time
	if met != nil {
		tRead = time.Now()
	}
	if hook := m.e.testMapErr; hook != nil {
		if err := hook(rd); err != nil {
			return err
		}
	}
	locs, err := m.mapRead(rd)
	if err != nil {
		return err
	}
	if len(locs) == 0 {
		atomic.AddInt64(&st.Unmapped, 1)
		if met != nil {
			met.unmapped.Inc()
			met.readSec.ObserveDuration(time.Since(tRead))
		}
		return nil
	}
	atomic.AddInt64(&st.Mapped, 1)
	ws := m.e.weights(locs, m.wbuf)
	m.wbuf = ws
	var tAcc time.Time
	if met != nil {
		tAcc = time.Now()
	}
	accepted := int64(0)
	tracker := m.e.tracker
	for i, loc := range locs {
		if ws[i] == 0 {
			continue
		}
		accepted++
		acc.AddRange(loc.windowStart-accOffset, loc.contribs, ws[i])
		if tracker != nil {
			tracker.Touch(loc.windowStart-accOffset, len(loc.contribs))
		}
	}
	atomic.AddInt64(&st.Locations, accepted)
	if met != nil {
		now := time.Now()
		met.accumSec.ObserveDuration(now.Sub(tAcc))
		met.readSec.ObserveDuration(now.Sub(tRead))
		met.mapped.Inc()
		met.locations.Add(accepted)
	}
	return nil
}

// MapReads maps an in-memory read slice through the streaming pipeline
// (MapReadsFrom over a slice source), accumulating online into acc.
// Accumulator index 0 corresponds to global position accOffset (zero
// for a whole-genome accumulator).
func (e *Engine) MapReads(reads []*fastq.Read, acc genome.Accumulator, accOffset int) (Stats, error) {
	return e.MapReadsFrom(fastq.SliceSource(reads), acc, accOffset)
}
