package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

// The mapping execution path. Every read set — a FASTQ stream, a
// cluster rank's dealt batches, or an in-memory slice (MapReads wraps it
// in fastq.SliceSource) — is mapped by MapReadsFrom, which pulls reads
// from a fastq.Source through a bounded producer/consumer pipeline whose
// footprint is fixed by configuration:
//
//   - one reader goroutine fills fixed-size batches (Config.Batch
//     reads each) and sends them into a work channel bounded at
//     Config.Queue batches;
//   - batch buffers are recycled through a free list of exactly
//     (Queue + Workers) buffers, so the producer blocks — backpressure
//     on the input stream — once every buffer is filled or being
//     mapped. Resident reads never exceed (Queue + Workers) · Batch;
//   - the mapper worker pool drains the queue, each worker reusing its
//     zero-allocation scratch state across batches;
//   - the first failure (worker or source) latches the error and a
//     stop signal: workers stop picking up batches, the producer stops
//     reading, and MapReadsFrom returns the first error.
//
// See DESIGN.md §10 for the invariants and the observability hooks.

// streamMetrics pre-resolves the streaming pipeline's gauges and
// counters (nil when observability is off):
//
//	stream.queue.depth        gauge: batches waiting in the work queue
//	stream.peak.resident.reads gauge: high-water mark of reads held in
//	                           batch buffers (the memory-bound witness)
//	stream.batches            counter: batches produced
//	stream.reads              counter: reads streamed through
type streamMetrics struct {
	queueDepth   *obs.Gauge
	peakResident *obs.Gauge
	batches      *obs.Counter
	reads        *obs.Counter
	ckptStall    *obs.Histogram
}

func newStreamMetrics(reg *obs.Registry) *streamMetrics {
	if reg == nil {
		return nil
	}
	return &streamMetrics{
		queueDepth:   reg.Gauge("stream.queue.depth"),
		peakResident: reg.Gauge("stream.peak.resident.reads"),
		batches:      reg.Counter("stream.batches"),
		reads:        reg.Counter("stream.reads"),
		// ckptStall observes, per checkpoint, the window where the whole
		// pipeline is idle: quiesce complete (every worker parked) through
		// snapshot and sink return. The drain before it is productive —
		// workers are mapping queued batches — so this, not wall-clock
		// differencing, is the checkpoint feature's added critical-path
		// time.
		ckptStall: reg.Timer("stream.ckpt.stall.seconds"),
	}
}

// readBatch is one recycled unit of streaming work. Only the slice
// header is reused; the reads themselves are owned by the garbage
// collector once their batch has been mapped.
type readBatch struct {
	reads []*fastq.Read
}

// ErrStopped is returned by MapReadsFromCkpt after a cooperative stop:
// the pipeline drained, the final checkpoint sink ran, and mapping
// ended early by request rather than by error or end of input.
var ErrStopped = errors.New("core: stop requested; run state checkpointed")

// ErrCkptBarrier is a sentinel a fastq.Source may return to request an
// out-of-band quiesce + checkpoint instead of more reads. The streaming
// pipeline drains in-flight batches, runs the checkpoint sink, and then
// resumes pulling from the source. The cluster dealing protocol uses it
// to propagate rank 0's checkpoint rounds into each rank's local
// pipeline; it is not an error and never escapes MapReadsFromCkpt.
var ErrCkptBarrier = errors.New("core: checkpoint barrier")

// CheckpointPolicy makes MapReadsFromCkpt periodically quiesce the
// pipeline and hand a consistent snapshot to Sink.
type CheckpointPolicy struct {
	// EveryReads triggers a checkpoint each time this many reads have
	// been consumed since the last one (0 = no read-count trigger).
	EveryReads int64
	// Every triggers a checkpoint when this much wall time has passed
	// since the last one (0 = no time trigger). Both triggers may be
	// set; whichever fires first wins.
	Every time.Duration
	// Sink receives each snapshot: reads consumed from the source so
	// far THIS RUN, the mapping stats so far this run, and the
	// serialized accumulator state (which includes any state loaded
	// before the run). A Sink error aborts the pipeline.
	Sink func(consumed int64, st Stats, state []byte) error
	// StopRequested, when non-nil, is polled between batches; returning
	// true drains the pipeline, runs a final Sink, and makes
	// MapReadsFromCkpt return ErrStopped.
	StopRequested func() bool
	// Quiesced, when non-nil, runs at every checkpoint barrier while
	// the pipeline is still parked — the work queue drained, every
	// worker idle, every accumulator write visible — and before the
	// pipeline resumes. The incremental caller hangs its per-region
	// sweep here. An error aborts the pipeline. A policy with only
	// Quiesced set (no Sink) still quiesces on the usual triggers; the
	// durable-state snapshot is skipped.
	Quiesced func(consumed int64) error
}

// MapReadsFrom maps every read src yields with the shared-memory worker
// pool, accumulating online into acc while holding at most
// (Queue + Workers) · Batch reads in memory. Accumulator index 0
// corresponds to global position accOffset. With one worker, reads are
// accumulated in source order, so the result is bit-identical for any
// Batch or Queue; with several, only float accumulation order varies.
func (e *Engine) MapReadsFrom(src fastq.Source, acc genome.Accumulator, accOffset int) (Stats, error) {
	return e.MapReadsFromCkpt(src, acc, accOffset, nil)
}

// MapReadsFromCkpt is MapReadsFrom with a checkpoint policy: every
// EveryReads reads / Every wall time (or when the source returns
// ErrCkptBarrier) the producer quiesces the pipeline — it collects all
// (Queue + Workers) recycled buffers from the free list, which can only
// succeed once the work queue is empty and every worker has finished
// its batch, so the channel handoffs give the producer a happens-before
// edge over every accumulator write — snapshots the stats and
// accumulator state, hands them to policy.Sink, and resumes. A nil
// policy makes it exactly MapReadsFrom.
func (e *Engine) MapReadsFromCkpt(src fastq.Source, acc genome.Accumulator, accOffset int, policy *CheckpointPolicy) (Stats, error) {
	var st Stats
	if acc == nil {
		return st, fmt.Errorf("core: nil accumulator")
	}
	if src == nil {
		return st, fmt.Errorf("core: nil read source")
	}
	workers := e.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	batchSz := e.cfg.Batch
	if batchSz < 1 {
		batchSz = 64
	}
	queue := e.cfg.Queue
	if queue < 1 {
		queue = 4
	}
	sm := newStreamMetrics(e.cfg.Metrics)

	// The free list is the memory bound: (queue + workers) buffers in
	// total, so at most `queue` batches can wait in the work channel
	// while every worker holds one.
	nbuf := queue + workers
	free := make(chan *readBatch, nbuf)
	for i := 0; i < nbuf; i++ {
		free <- &readBatch{reads: make([]*fastq.Read, 0, batchSz)}
	}
	work := make(chan *readBatch, queue)
	stopCh := make(chan struct{})
	var stopOnce sync.Once
	var errMu sync.Mutex
	var firstErr error
	latch := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stopOnce.Do(func() { close(stopCh) })
	}
	var resident, peak atomic.Int64

	// Producer: fill batches from the source until EOF, error, or stop,
	// quiescing for a checkpoint whenever the policy (or a source
	// barrier) asks for one.
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		defer close(work)
		var consumed, sinceCkpt int64
		lastCkpt := time.Now()
		held := make([]*readBatch, 0, nbuf)
		release := func() {
			for _, hb := range held {
				free <- hb
			}
			held = held[:0]
		}
		// quiesce collects every recycled buffer: possible only once the
		// work queue is empty and all workers are idle between batches.
		quiesce := func() bool {
			for len(held) < nbuf {
				select {
				case hb := <-free:
					held = append(held, hb)
				case <-stopCh:
					release()
					return false
				}
			}
			return true
		}
		// checkpoint quiesces, snapshots (stats + accumulator state),
		// runs the sink, and resumes the pipeline. False aborts the run.
		checkpoint := func() bool {
			if policy == nil || (policy.Sink == nil && policy.Quiesced == nil) {
				return true
			}
			if !quiesce() {
				return false
			}
			stallStart := time.Now()
			snap := Stats{
				Mapped:    atomic.LoadInt64(&st.Mapped),
				Unmapped:  atomic.LoadInt64(&st.Unmapped),
				Locations: atomic.LoadInt64(&st.Locations),
			}
			var state []byte
			var err error
			if policy.Sink != nil {
				state, err = genome.SnapshotState(acc)
			}
			if err == nil && policy.Quiesced != nil {
				// Must run before release(): the hook reads the
				// accumulator and needs the quiesced view.
				if qerr := policy.Quiesced(consumed); qerr != nil {
					err = fmt.Errorf("core: quiesced hook: %w", qerr)
				}
			}
			release()
			if err != nil {
				latch(err)
				return false
			}
			if policy.Sink != nil {
				if err := policy.Sink(consumed, snap, state); err != nil {
					latch(fmt.Errorf("core: checkpoint sink: %w", err))
					return false
				}
			}
			if sm != nil {
				sm.ckptStall.ObserveDuration(time.Since(stallStart))
			}
			sinceCkpt = 0
			lastCkpt = time.Now()
			return true
		}
		for {
			if policy != nil && policy.StopRequested != nil && policy.StopRequested() {
				if checkpoint() {
					latch(ErrStopped)
				}
				return
			}
			var b *readBatch
			select {
			case b = <-free:
			case <-stopCh:
				return
			}
			b.reads = b.reads[:0]
			var srcErr error
			for len(b.reads) < batchSz {
				rd, err := src.Next()
				if err != nil {
					srcErr = err
					break
				}
				b.reads = append(b.reads, rd)
			}
			barrier := errors.Is(srcErr, ErrCkptBarrier)
			if n := len(b.reads); n > 0 {
				r := resident.Add(int64(n))
				for {
					p := peak.Load()
					if r <= p || peak.CompareAndSwap(p, r) {
						break
					}
				}
				if sm != nil {
					sm.reads.Add(int64(n))
					sm.batches.Inc()
					sm.peakResident.Set(float64(peak.Load()))
				}
				select {
				case work <- b:
					if sm != nil {
						sm.queueDepth.Set(float64(len(work)))
					}
				case <-stopCh:
					return
				}
				consumed += int64(n)
				sinceCkpt += int64(n)
			} else {
				// Unused buffer goes straight back so quiesce can count it.
				free <- b
			}
			if barrier {
				if !checkpoint() {
					return
				}
				continue
			}
			if srcErr != nil {
				if srcErr != io.EOF {
					latch(fmt.Errorf("core: read source: %w", srcErr))
				}
				return
			}
			if policy != nil &&
				((policy.EveryReads > 0 && sinceCkpt >= policy.EveryReads) ||
					(policy.Every > 0 && time.Since(lastCkpt) >= policy.Every)) {
				if !checkpoint() {
					return
				}
			}
		}
	}()

	// Workers: drain the queue until it closes or an error latches.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := e.newMapper()
			if err != nil {
				latch(err)
				return
			}
			target := workerTarget(acc)
			for b := range work {
				select {
				case <-stopCh:
					// Error latched elsewhere: stop picking up batches.
					return
				default:
				}
				if sm != nil {
					sm.queueDepth.Set(float64(len(work)))
				}
				for _, rd := range b.reads {
					if err := m.consumeRead(rd, target, accOffset, &st); err != nil {
						latch(err)
						return
					}
				}
				resident.Add(-int64(len(b.reads)))
				b.reads = b.reads[:0]
				free <- b
			}
		}()
	}
	wg.Wait()
	prodWG.Wait()
	if sm != nil {
		sm.queueDepth.Set(0)
		sm.peakResident.Set(float64(peak.Load()))
	}
	return st, firstErr
}
