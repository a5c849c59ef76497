package gnumap

// Crash-safe checkpoint/resume (DESIGN.md §13). A long mapping run
// periodically quiesces its streaming pipeline and writes a durable
// checkpoint — config fingerprint, source watermark, mapping stats,
// accumulator state — atomically to one file. A resumed run loads the
// checkpoint (fingerprint-checked), skips the already-mapped prefix of
// the reopened source, and continues; the final calls match an
// uninterrupted run.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"gnumap/internal/ckpt"
	"gnumap/internal/core"
	"gnumap/internal/genome"
)

// ErrStopped reports a cooperative stop: the pipeline drained, the
// final checkpoint was written, and the run ended early by request
// (typically SIGINT/SIGTERM) rather than by error or end of input.
var ErrStopped = core.ErrStopped

// Typed checkpoint failure modes, re-exported for errors.Is. Every
// decode failure wraps exactly one of these.
var (
	// ErrNotCheckpoint: the file does not start with the checkpoint magic
	// (e.g. a legacy raw-state blob, or not a checkpoint at all).
	ErrNotCheckpoint = ckpt.ErrNotCheckpoint
	// ErrCheckpointVersion: written by a format version this build
	// does not read.
	ErrCheckpointVersion = ckpt.ErrVersion
	// ErrCheckpointTruncated: the file ends before a declared section.
	ErrCheckpointTruncated = ckpt.ErrTruncated
	// ErrCheckpointChecksum: a section's CRC does not match.
	ErrCheckpointChecksum = ckpt.ErrChecksum
	// ErrCheckpointTooLarge: a declared length exceeds the bound implied
	// by the reference.
	ErrCheckpointTooLarge = ckpt.ErrTooLarge
	// ErrCheckpointMismatch: the checkpoint belongs to a run with
	// different call-affecting configuration (reference, memory mode,
	// band, ploidy, parameters).
	ErrCheckpointMismatch = ckpt.ErrMismatch
)

// CheckpointConfig configures durable checkpointing of a streamed
// mapping run (Pipeline.MapReadsFromCheckpointed, or RunCluster in
// ReadSplit mode via Options.Checkpoint).
type CheckpointConfig struct {
	// Path is the checkpoint file. Every write atomically replaces it
	// (temp file + fsync + rename), so a crash at any instant leaves
	// either the previous or the new complete checkpoint.
	Path string
	// EveryReads triggers a checkpoint each time this many reads have
	// been consumed since the last one (0 = no read-count trigger).
	EveryReads int64
	// Every triggers a checkpoint when this much wall time has passed
	// since the last one (0 = no time trigger).
	Every time.Duration
	// Resume (cluster path only): load Path before mapping, skip the
	// watermark prefix of the source, and continue from the saved
	// state. A missing file is a fresh start, not an error, so a
	// supervisor can pass the same flags on every (re)invocation.
	// Single-process callers use Pipeline.ResumeCheckpoint instead.
	Resume bool
	// StopRequested, when non-nil, is polled between batches; returning
	// true drains the pipeline, writes a final checkpoint, and makes
	// the run return ErrStopped. Wire a signal handler here for
	// graceful shutdown.
	StopRequested func() bool
}

// fingerprint pins checkpoints to this pipeline's call-affecting
// configuration.
func (p *Pipeline) fingerprint() ckpt.Fingerprint {
	return fingerprintFor(p.ref, p.opts)
}

// fingerprintFor renders the call-affecting configuration — and only
// that; execution knobs (workers, batch, queue, accumulation strategy,
// PHMM lane width) may change freely across a resume — into a
// checkpoint fingerprint. Both configs are resolved first so a zero
// value and its explicit default fingerprint identically.
func fingerprintFor(ref *genome.Reference, opts Options) ckpt.Fingerprint {
	ec := opts.Engine.Resolved()
	cc := opts.Caller.Resolved()
	canonical := fmt.Sprintf(
		"phmm=%+v align=%v k=%d pad=%d attr=%v maxCand=%d minSeedVotes=%d minVoteFrac=%v maxBucket=%d minPosterior=%v minLocLogLik=%v viterbi=%t noQual=%t bestHit=%t alpha=%v fdr=%t minDepth=%v minHetMinor=%v",
		ec.PHMM, ec.AlignMode, ec.K, ec.Pad, ec.Attribution,
		ec.MaxCandidates, ec.MinSeedVotes, ec.MinVoteFraction,
		ec.MaxBucket, ec.MinPosterior, ec.MinLocLogLik,
		ec.ViterbiOnly, ec.IgnoreQualities, ec.BestHitOnly,
		cc.Alpha, cc.UseFDR, cc.MinDepth, cc.MinHetMinorFraction)
	return ckpt.Fingerprint{
		RefDigest:    ref.Digest(),
		RefLen:       int64(ref.Len()),
		Memory:       int32(opts.Memory),
		Band:         int32(opts.Engine.EffectiveBand()),
		Ploidy:       int32(cc.Ploidy),
		ParamsDigest: ckpt.DigestParams(canonical),
	}
}

// ckptCommitter is the streaming pipeline's checkpoint sink, with the
// durable part taken off the critical path: sink runs while the
// pipeline is quiesced, folds the run-local counters onto the resumed
// base, and hands the snapshot to a background goroutine for the
// temp-file write + fsync + rename. The pipeline stalls only for the
// state snapshot itself, and at most one commit is ever in flight —
// sink first waits out the previous commit (surfacing its error, which
// aborts the run), so commits land in order and a crash at any instant
// still leaves either the previous or the new complete checkpoint on
// disk. Flush must run after the mapping call returns; until it does,
// the newest checkpoint may not be durable yet.
type ckptCommitter struct {
	path string
	fp   ckpt.Fingerprint
	base ckpt.Checkpoint
	reg  *MetricsRegistry

	// pending holds the in-flight commit's result; a nil placeholder
	// means no commit is in flight.
	pending chan error
}

func newCkptCommitter(path string, fp ckpt.Fingerprint, base ckpt.Checkpoint, reg *MetricsRegistry) *ckptCommitter {
	c := &ckptCommitter{path: path, fp: fp, base: base, reg: reg, pending: make(chan error, 1)}
	c.pending <- nil
	return c
}

// sink is the core.CheckpointPolicy Sink. The state slice is a private
// snapshot (genome.SnapshotState allocates), so retaining it past the
// quiesce window is safe.
func (c *ckptCommitter) sink(consumed int64, st core.Stats, state []byte) error {
	if err := <-c.pending; err != nil {
		c.pending <- err // keep Flush deterministic after an abort
		return err
	}
	cp := &ckpt.Checkpoint{
		Fingerprint:   c.fp,
		ReadsConsumed: c.base.ReadsConsumed + consumed,
		Mapped:        c.base.Mapped + st.Mapped,
		Unmapped:      c.base.Unmapped + st.Unmapped,
		Locations:     c.base.Locations + st.Locations,
		State:         state,
	}
	go func() {
		start := time.Now()
		n, err := ckpt.WriteFile(c.path, cp)
		if err == nil && c.reg != nil {
			c.reg.Counter("ckpt.writes").Inc()
			c.reg.Counter("ckpt.bytes").Add(n)
			c.reg.Timer("ckpt.write.seconds").ObserveDuration(time.Since(start))
		}
		c.pending <- err
	}()
	return nil
}

// Flush waits for the in-flight commit (if any) to reach disk and
// returns its error. Safe to call more than once.
func (c *ckptCommitter) Flush() error {
	err := <-c.pending
	c.pending <- err
	return err
}

// MapReadsFromCheckpointed is MapReadsFrom with durable checkpoints:
// every cc.EveryReads reads / cc.Every wall time the pipeline quiesces
// and writes its full state to cc.Path. Counters in the checkpoint are
// cumulative across the pipeline's life (including a prior
// ResumeCheckpoint), so the watermark is always "reads consumed since
// the original start of the job". Returns ErrStopped (with a final
// checkpoint written) when cc.StopRequested fires.
func (p *Pipeline) MapReadsFromCheckpointed(src ReadSource, cc CheckpointConfig) (MapStats, error) {
	if cc.Path == "" {
		return MapStats{}, fmt.Errorf("gnumap: checkpoint path required")
	}
	cw := newCkptCommitter(cc.Path, p.fingerprint(), ckpt.Checkpoint{
		ReadsConsumed: p.consumed,
		Mapped:        p.cum.Mapped,
		Unmapped:      p.cum.Unmapped,
		Locations:     p.cum.Locations,
	}, p.opts.Engine.Metrics)
	pol := &core.CheckpointPolicy{
		EveryReads:    cc.EveryReads,
		Every:         cc.Every,
		StopRequested: cc.StopRequested,
		Sink:          cw.sink,
	}
	st, err := p.eng.MapReadsFromCkpt(src, p.acc, 0, pol)
	ferr := cw.Flush() // the newest checkpoint must be durable before we return
	if err != nil && !errors.Is(err, ErrStopped) {
		return st, err
	}
	if ferr != nil {
		return st, fmt.Errorf("gnumap: checkpoint commit: %w", ferr)
	}
	p.noteRun(st)
	return st, err
}

// ResumeCheckpoint loads the checkpoint at path into the pipeline —
// fingerprint-checked, accumulator state restored, cumulative counters
// adopted — and returns the source watermark: the number of reads the
// caller must skip from the reopened source (see SkipReads) before the
// next MapReadsFromCheckpointed call.
func (p *Pipeline) ResumeCheckpoint(path string) (int64, error) {
	cp, err := ckpt.ReadFile(path, ckpt.MaxPayloadFor(p.ref.Len()))
	if err != nil {
		return 0, err
	}
	if err := p.fingerprint().Check(cp.Fingerprint); err != nil {
		return 0, fmt.Errorf("gnumap: resume %s: %w", path, err)
	}
	st, ok := p.acc.(genome.Stateful)
	if !ok {
		return 0, fmt.Errorf("gnumap: memory mode %v is not serializable", p.acc.Mode())
	}
	if err := st.LoadStateBytes(cp.State); err != nil {
		return 0, fmt.Errorf("gnumap: resume %s: %w", path, err)
	}
	p.cum = MapStats{Mapped: cp.Mapped, Unmapped: cp.Unmapped, Locations: cp.Locations}
	p.consumed = cp.ReadsConsumed
	return cp.ReadsConsumed, nil
}

// SkipReads discards the first n reads of src — the already-mapped
// prefix named by a resume watermark. The source ending before n reads
// is an error: the input shrank since the checkpoint was taken.
func (p *Pipeline) SkipReads(src ReadSource, n int64) error {
	for i := int64(0); i < n; i++ {
		if _, err := src.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("gnumap: source ended after %d of %d watermark reads; input changed since checkpoint", i, n)
			}
			return err
		}
	}
	if reg := p.opts.Engine.Metrics; reg != nil && n > 0 {
		reg.Counter("ckpt.resume.reads.skipped").Add(n)
	}
	return nil
}

// ReadsConsumed returns the cumulative source watermark: reads mapped
// by this pipeline plus any prefix adopted from a resumed checkpoint.
func (p *Pipeline) ReadsConsumed() int64 { return p.consumed }

// CumulativeStats returns the mapping statistics accumulated across
// every mapping call of the pipeline's life, including counts adopted
// from a resumed checkpoint (per-call MapStats cover only their call).
func (p *Pipeline) CumulativeStats() MapStats { return p.cum }

// clusterCkpt carries a validated checkpoint setup into the cluster
// node function: the config, the precomputed fingerprint, and — when
// resuming — the loaded base checkpoint whose counters offset every
// sink write and whose state preloads rank 0's accumulator.
type clusterCkpt struct {
	cfg  CheckpointConfig
	fp   ckpt.Fingerprint
	base ckpt.Checkpoint
}

// prepareClusterCkpt validates Options.Checkpoint for a streamed
// read-split run and, on Resume, loads the checkpoint and skips the
// watermark prefix of src (rank 0 owns the source, so this happens
// once, driver-side). A missing file under Resume is a fresh start.
func prepareClusterCkpt(ref *genome.Reference, src ReadSource, opts Options) (*clusterCkpt, error) {
	cc := *opts.Checkpoint
	if cc.Path == "" {
		return nil, fmt.Errorf("gnumap: checkpoint path required")
	}
	ckr := &clusterCkpt{cfg: cc, fp: fingerprintFor(ref, opts)}
	if !cc.Resume {
		return ckr, nil
	}
	cp, err := ckpt.ReadFile(cc.Path, ckpt.MaxPayloadFor(ref.Len()))
	if errors.Is(err, os.ErrNotExist) {
		return ckr, nil
	}
	if err != nil {
		return nil, err
	}
	if err := ckr.fp.Check(cp.Fingerprint); err != nil {
		return nil, fmt.Errorf("gnumap: resume %s: %w", cc.Path, err)
	}
	for i := int64(0); i < cp.ReadsConsumed; i++ {
		if _, err := src.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("gnumap: source ended after %d of %d watermark reads; input changed since checkpoint", i, cp.ReadsConsumed)
			}
			return nil, err
		}
	}
	if cp.ReadsConsumed > 0 {
		ProcessMetrics().Counter("ckpt.resume.reads.skipped").Add(cp.ReadsConsumed)
	}
	ckr.base = *cp
	return ckr, nil
}

// streamCkptFor builds rank 0's core.StreamCkpt from the prepared
// cluster checkpoint setup, plus the committer the caller must Flush
// after the run (nil for other ranks and runs without checkpointing).
func streamCkptFor(ckr *clusterCkpt, reg *MetricsRegistry) (*core.StreamCkpt, *ckptCommitter) {
	if ckr == nil {
		return nil, nil
	}
	cw := newCkptCommitter(ckr.cfg.Path, ckr.fp, ckr.base, reg)
	return &core.StreamCkpt{
		EveryReads:    ckr.cfg.EveryReads,
		Every:         ckr.cfg.Every,
		StopRequested: ckr.cfg.StopRequested,
		ResumeState:   ckr.base.State,
		Sink:          cw.sink,
	}, cw
}
