package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

func init() {
	gob.Register(streamShard{})
	gob.Register(ckptPayload{})
}

// Streamed read-split, the read-split path for every run without an
// op deadline (RunReadSplit delegates here with its slice wrapped as a
// source): rank 0 owns the input stream and deals fixed-size batches
// round-robin to the ranks — batch i goes to rank i mod size, so the
// shard assignment is deterministic regardless of relative rank speed.
// A per-rank credit window of Config.Queue unacknowledged batches gives
// the same backpressure the local pipeline has: rank 0 never buffers
// more than Queue batches per remote rank plus its own
// (Queue + Workers)-buffer local pipeline, so cluster-wide resident
// reads stay bounded by configuration while the input can be
// arbitrarily large.
//
// Each rank feeds its arriving batches into Engine.MapReadsFrom through
// a channel-backed Source, then the read-split collective tail (stats
// Allreduce + accumulator ReduceTree) folds the ranks together.
//
// The fault-tolerant protocol needs replayable shards (a dead worker's
// whole shard is re-mapped elsewhere), which a stream cannot offer;
// callers with OpTimeout configured must materialize the reads and use
// RunReadSplit, which then runs runReadSplitFT. gnumap.RunCluster does
// that materialization.

// streamShard is one dealt batch of reads, the end-of-stream marker
// (Done), or a checkpoint-round marker (Ckpt): on Ckpt the receiving
// rank quiesces its local pipeline and sends its snapshot to rank 0 on
// streamCkptTag before processing further batches. Per-(sender, tag)
// FIFO ordering guarantees the snapshot covers exactly the batches
// dealt before the marker.
type streamShard struct {
	Reads []*fastq.Read
	Done  bool
	Ckpt  bool
}

// ckptPayload is one rank's quiesced contribution to a cluster
// checkpoint round: its serialized accumulator state and its share of
// the mapping statistics so far.
type ckptPayload struct {
	State                       []byte
	Mapped, Unmapped, Locations int64
}

// Streaming tags live in the same user tag space as the FT protocol
// (1001-1003); the two paths are mutually exclusive but keep the tags
// distinct anyway.
const (
	streamShardTag = 1004
	streamAckTag   = 1005
	streamCkptTag  = 1006
)

// StreamCkpt threads durable checkpointing through a streamed
// read-split run. Rank 0 drives: every EveryReads dealt reads / Every
// wall time it broadcasts a checkpoint marker, quiesces its own
// pipeline, collects every rank's snapshot, merges them, and hands the
// cluster-wide result to Sink. Worker ranks need no configuration —
// they respond to markers unconditionally.
type StreamCkpt struct {
	// EveryReads / Every trigger a round (see CheckpointPolicy).
	EveryReads int64
	Every      time.Duration
	// Sink receives the dealt-read watermark, the global mapping stats
	// of THIS RUN, and the merged accumulator state. Runs on rank 0.
	Sink func(consumed int64, st Stats, state []byte) error
	// StopRequested, polled by rank 0 between batches, triggers a final
	// round followed by a graceful end-of-stream; the run then returns
	// ErrStopped after the normal collective tail.
	StopRequested func() bool
	// ResumeState, when non-empty, preloads rank 0's accumulator before
	// mapping (the checkpointed merged state being resumed from). The
	// final reduction folds it into the global result exactly once.
	ResumeState []byte
}

// chanSource adapts a channel of read batches to a fastq.Source.
type chanSource struct {
	ch  <-chan []*fastq.Read
	cur []*fastq.Read
	pos int
}

func (s *chanSource) Next() (*fastq.Read, error) {
	for s.pos >= len(s.cur) {
		b, ok := <-s.ch
		if !ok {
			return nil, io.EOF
		}
		if b == nil {
			// A nil batch is the in-band checkpoint barrier: the local
			// pipeline quiesces and snapshots, then keeps reading.
			return nil, ErrCkptBarrier
		}
		s.cur, s.pos = b, 0
	}
	rd := s.cur[s.pos]
	s.pos++
	return rd, nil
}

// RunReadSplitStream executes read-split mapping with the reads
// streamed from rank 0. src must be non-nil on rank 0 and is ignored
// elsewhere. The returned accumulator is the merged result at rank 0
// and nil elsewhere; Stats are global on every rank.
func RunReadSplitStream(c *cluster.Comm, ref *genome.Reference, src fastq.Source, mode genome.Mode, cfg Config) (genome.Accumulator, Stats, error) {
	return RunReadSplitStreamCkpt(c, ref, src, mode, cfg, nil)
}

// RunReadSplitStreamCkpt is RunReadSplitStream with cluster-wide
// checkpoint rounds driven by rank 0 (see StreamCkpt). A nil ck is
// exactly RunReadSplitStream. After a cooperative stop the normal
// collective tail still runs on every rank (so no rank deadlocks in
// the reduction) and rank 0 returns ErrStopped.
func RunReadSplitStreamCkpt(c *cluster.Comm, ref *genome.Reference, src fastq.Source, mode genome.Mode, cfg Config, ck *StreamCkpt) (genome.Accumulator, Stats, error) {
	var st Stats
	if c.OpTimeout() > 0 {
		return nil, st, fmt.Errorf("core: streaming read-split does not support the fault-tolerant protocol (shards are not replayable); materialize the reads and use RunReadSplit")
	}
	cfg = cfg.withDefaults()
	eng, err := NewEngine(ref, cfg)
	if err != nil {
		return nil, st, err
	}
	acc, err := NewAccumulator(mode, ref.Len(), cfg)
	if err != nil {
		return nil, st, err
	}
	var local Stats
	var stopped bool
	if c.Rank() == 0 {
		if src == nil {
			return nil, st, fmt.Errorf("core: rank 0 needs a read source")
		}
		if ck != nil && len(ck.ResumeState) > 0 {
			sf, ok := acc.(genome.Stateful)
			if !ok {
				return nil, st, fmt.Errorf("core: memory mode %v cannot load checkpoint state", mode)
			}
			if err := sf.LoadStateBytes(ck.ResumeState); err != nil {
				return nil, st, err
			}
		}
		local, stopped, err = streamDeal(c, eng, src, acc, mode, cfg, ck)
	} else {
		local, err = streamReceive(c, eng, acc, cfg)
	}
	if err != nil {
		return nil, st, err
	}
	// Fold worker shards before the cross-rank reduction (no-op for a
	// striped accumulator).
	combined, err := CombineAccumulator(acc, cfg.Metrics)
	if err != nil {
		return nil, st, err
	}
	racc, rst, err := reduceReadSplit(c, combined, mode, ref.Len(), local)
	if err == nil && stopped {
		err = ErrStopped
	}
	return racc, rst, err
}

// localPipe starts MapReadsFromCkpt on a channel-backed source and
// returns the feed channel, a done channel, and accessors for the
// result. A nil batch fed into the channel propagates as a checkpoint
// barrier to the policy's Sink.
func localPipe(eng *Engine, acc genome.Accumulator, queue int, pol *CheckpointPolicy) (chan<- []*fastq.Read, <-chan struct{}, *Stats, *error) {
	ch := make(chan []*fastq.Read, queue)
	done := make(chan struct{})
	st := new(Stats)
	errp := new(error)
	go func() {
		defer close(done)
		*st, *errp = eng.MapReadsFromCkpt(&chanSource{ch: ch}, acc, 0, pol)
	}()
	return ch, done, st, errp
}

// streamDeal is rank 0's half: read the source, deal batches
// round-robin (keeping its own share), enforce the per-rank credit
// window, run checkpoint rounds when the policy asks, then signal
// end-of-stream. The bool result reports a cooperative stop.
func streamDeal(c *cluster.Comm, eng *Engine, src fastq.Source, acc genome.Accumulator, mode genome.Mode, cfg Config, ck *StreamCkpt) (Stats, bool, error) {
	size := c.Size()
	queue := cfg.Queue
	var sinkCh chan ckptPayload
	var pol *CheckpointPolicy
	if ck != nil {
		sinkCh = make(chan ckptPayload, 1)
		pol = &CheckpointPolicy{Sink: func(consumed int64, st Stats, state []byte) error {
			sinkCh <- ckptPayload{State: state, Mapped: st.Mapped, Unmapped: st.Unmapped, Locations: st.Locations}
			return nil
		}}
	}
	localCh, mapDone, mapStats, mapErr := localPipe(eng, acc, queue, pol)
	outstanding := make([]int, size)
	var srcErr error
	batchIdx := 0
	var dealt, sinceCkpt int64
	lastCkpt := time.Now()
	stopped := false

	// round runs one cluster-wide checkpoint: marker to every worker,
	// barrier through the local pipeline, collect and merge every
	// rank's snapshot, hand the global result to the sink. FIFO per
	// (sender, tag) makes the watermark exact: every batch dealt before
	// the marker is fully accumulated in some rank's snapshot.
	round := func() error {
		for r := 1; r < size; r++ {
			if err := c.Send(r, streamShardTag, streamShard{Ckpt: true}); err != nil {
				return err
			}
		}
		select {
		case localCh <- nil:
		case <-mapDone:
			if *mapErr != nil {
				return *mapErr
			}
			return fmt.Errorf("core: local pipeline ended before checkpoint round")
		}
		var total ckptPayload
		select {
		case total = <-sinkCh:
		case <-mapDone:
			if *mapErr != nil {
				return *mapErr
			}
			return fmt.Errorf("core: local pipeline ended during checkpoint round")
		}
		merged, err := genome.New(mode, acc.Len())
		if err != nil {
			return err
		}
		if err := merged.(genome.Stateful).LoadStateBytes(total.State); err != nil {
			return err
		}
		for r := 1; r < size; r++ {
			v, err := c.Recv(r, streamCkptTag)
			if err != nil {
				return err
			}
			p, ok := v.(ckptPayload)
			if !ok {
				return fmt.Errorf("core: rank %d sent checkpoint payload %T", r, v)
			}
			tmp, err := genome.New(mode, acc.Len())
			if err != nil {
				return err
			}
			if err := tmp.(genome.Stateful).LoadStateBytes(p.State); err != nil {
				return err
			}
			if err := merged.Merge(tmp); err != nil {
				return err
			}
			total.Mapped += p.Mapped
			total.Unmapped += p.Unmapped
			total.Locations += p.Locations
		}
		state, err := merged.(genome.Stateful).State()
		if err != nil {
			return err
		}
		st := Stats{Mapped: total.Mapped, Unmapped: total.Unmapped, Locations: total.Locations}
		if err := ck.Sink(dealt, st, state); err != nil {
			return fmt.Errorf("core: checkpoint sink: %w", err)
		}
		sinceCkpt = 0
		lastCkpt = time.Now()
		return nil
	}

deal:
	for {
		if ck != nil && ck.StopRequested != nil && ck.StopRequested() {
			if err := round(); err != nil {
				close(localCh)
				<-mapDone
				return Stats{}, false, err
			}
			stopped = true
			break
		}
		batch := make([]*fastq.Read, 0, cfg.Batch)
		for len(batch) < cfg.Batch {
			rd, err := src.Next()
			if err != nil {
				if err != io.EOF {
					srcErr = fmt.Errorf("core: read source: %w", err)
				}
				break
			}
			batch = append(batch, rd)
		}
		if len(batch) > 0 {
			r := batchIdx % size
			batchIdx++
			if r == 0 {
				select {
				case localCh <- batch:
				case <-mapDone:
					// The local mapper latched an error; stop dealing.
					break deal
				}
			} else {
				if outstanding[r] >= queue {
					// Credit window full: wait for this rank to finish a
					// batch before handing it another.
					if _, err := c.Recv(r, streamAckTag); err != nil {
						close(localCh)
						<-mapDone
						return Stats{}, false, err
					}
					outstanding[r]--
				}
				if err := c.Send(r, streamShardTag, streamShard{Reads: batch}); err != nil {
					close(localCh)
					<-mapDone
					return Stats{}, false, err
				}
				outstanding[r]++
			}
			dealt += int64(len(batch))
			sinceCkpt += int64(len(batch))
		}
		if srcErr != nil || len(batch) < cfg.Batch {
			break
		}
		if ck != nil &&
			((ck.EveryReads > 0 && sinceCkpt >= ck.EveryReads) ||
				(ck.Every > 0 && time.Since(lastCkpt) >= ck.Every)) {
			if err := round(); err != nil {
				close(localCh)
				<-mapDone
				return Stats{}, false, err
			}
		}
	}
	close(localCh)
	// Drain remaining credits so no worker is left with an unreceived
	// ack in flight, then release everyone.
	var commErr error
	for r := 1; r < size; r++ {
		for outstanding[r] > 0 {
			if _, err := c.Recv(r, streamAckTag); err != nil {
				commErr = err
				break
			}
			outstanding[r]--
		}
		if commErr == nil {
			if err := c.Send(r, streamShardTag, streamShard{Done: true}); err != nil {
				commErr = err
			}
		}
	}
	<-mapDone
	switch {
	case *mapErr != nil:
		return Stats{}, false, *mapErr
	case srcErr != nil:
		return Stats{}, false, srcErr
	case commErr != nil:
		return Stats{}, false, commErr
	}
	return *mapStats, stopped, nil
}

// streamReceive is a worker rank's half: receive batches, feed the
// local pipeline, ack each batch to open the next credit. Checkpoint
// markers are handled unconditionally: quiesce the local pipeline
// through the in-band barrier, send the snapshot to rank 0, continue.
func streamReceive(c *cluster.Comm, eng *Engine, acc genome.Accumulator, cfg Config) (Stats, error) {
	payloadCh := make(chan ckptPayload, 1)
	pol := &CheckpointPolicy{Sink: func(consumed int64, st Stats, state []byte) error {
		payloadCh <- ckptPayload{State: state, Mapped: st.Mapped, Unmapped: st.Unmapped, Locations: st.Locations}
		return nil
	}}
	localCh, mapDone, mapStats, mapErr := localPipe(eng, acc, cfg.Queue, pol)
	for {
		v, err := c.Recv(0, streamShardTag)
		if err != nil {
			close(localCh)
			<-mapDone
			return Stats{}, err
		}
		sh, ok := v.(streamShard)
		if !ok {
			close(localCh)
			<-mapDone
			return Stats{}, fmt.Errorf("core: rank %d: unexpected stream payload %T", c.Rank(), v)
		}
		if sh.Ckpt {
			select {
			case localCh <- nil:
			case <-mapDone:
				return Stats{}, *mapErr
			}
			select {
			case p := <-payloadCh:
				if err := c.Send(0, streamCkptTag, p); err != nil {
					close(localCh)
					<-mapDone
					return Stats{}, err
				}
			case <-mapDone:
				return Stats{}, *mapErr
			}
			continue
		}
		if sh.Done {
			break
		}
		select {
		case localCh <- sh.Reads:
		case <-mapDone:
			// Mapper latched an error; returning tears down the
			// transport, which unblocks rank 0.
			return Stats{}, *mapErr
		}
		if err := c.Send(0, streamAckTag, 1); err != nil {
			close(localCh)
			<-mapDone
			return Stats{}, err
		}
	}
	close(localCh)
	<-mapDone
	if *mapErr != nil {
		return Stats{}, *mapErr
	}
	return *mapStats, nil
}
