package main

import (
	"errors"
	"math"
	"time"

	"gnumap/internal/core"
	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/kmer"
	"gnumap/internal/obs"
	"gnumap/internal/phmm"
	"gnumap/internal/pwm"
)

// replayCounts are the work counts a mapping pass produces; the replay
// computes them itself and the engine reports them through its metrics
// registry, so the two can be reconciled.
type replayCounts struct {
	Reads      int64 `json:"reads"`
	Candidates int64 `json:"candidates"`
	Alignments int64 `json:"alignments"`
	Cells      int64 `json:"cells"`
	Locations  int64 `json:"locations"`
}

// drift is the summed absolute difference of the four work counts as a
// share of the engine's total: 0 when the replay does exactly the
// engine's work.
func drift(replay, program replayCounts) float64 {
	r := [...]int64{replay.Candidates, replay.Alignments, replay.Cells, replay.Locations}
	p := [...]int64{program.Candidates, program.Alignments, program.Cells, program.Locations}
	var diff, total float64
	for i := range r {
		diff += math.Abs(float64(r[i] - p[i]))
		total += float64(p[i])
	}
	return ratio(diff, total)
}

// replayer maps reads serially by calling the public functions of the
// layers the pipeline gives no seam — pwm, phmm and genome.AddRange —
// in the order and grouping the engine uses today (core.mapper.mapRead,
// flushPending, finishAlignment, weights and consumeRead), timing each
// call. It accumulates into its own accumulator of the workload's
// layout, so the traced run's result is untouched.
type replayer struct {
	cfg    core.Config
	band   int
	ref    *genome.Reference
	idx    kmer.SeedIndex
	al     *phmm.Aligner
	ba     *phmm.BatchAligner
	target genome.Accumulator
	lane   *lane
	parent int64

	fwd, rev pwm.Matrix
	buf      kmer.CandidateBuf
	cands    []strandCand
	pending  []pendingWin
	group    []int
	xs       []*pwm.Matrix
	ys       []dna.Seq
	locs     []replayLoc
	arena    []genome.Vec
	arenaOff int
	totals   []float64
	weights  []float64

	counts                           replayCounts
	scalar, batches, lanes, accepted int64
	pwmNs, alignNs, contribNs, addNs int64
}

type strandCand struct {
	minus bool
	cand  kmer.Candidate
}

type pendingWin struct {
	p           *pwm.Matrix
	window      dna.Seq
	windowStart int
	diag        int
	done        bool
	accepted    bool
	loc         replayLoc
}

type replayLoc struct {
	windowStart int
	logLik      float64
	contribs    []genome.Vec
}

func newReplayer(cfg core.Config, ref *genome.Reference, idx kmer.SeedIndex, mode genome.Mode, rec *recorder, parent int64) (*replayer, error) {
	cfg = cfg.Resolved()
	al, err := phmm.NewAligner(cfg.PHMM, cfg.AlignMode)
	if err != nil {
		return nil, err
	}
	r := &replayer{cfg: cfg, band: cfg.EffectiveBand(), ref: ref, idx: idx, al: al, lane: rec.newLane(), parent: parent}
	if cfg.PhmmBatch >= 2 && !cfg.ViterbiOnly {
		if r.ba, err = phmm.NewBatchAligner(cfg.PHMM, cfg.AlignMode); err != nil {
			return nil, err
		}
	}
	// The same accumulator the pipeline builds, written through the
	// same per-worker view (a lock-free shard when sharded).
	acc, err := core.NewAccumulator(mode, ref.Len(), cfg)
	if err != nil {
		return nil, err
	}
	r.target = acc
	if sp, ok := acc.(genome.ShardProvider); ok {
		r.target = sp.WorkerShard()
	}
	return r, nil
}

func (r *replayer) timed(name string, parent int64, read uint64, sum *int64, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.lane.add(name, parent, read, t0, t1)
	*sum += t1.Sub(t0).Nanoseconds()
}

// read replays one read under a replay.read span.
func (r *replayer) read(rd *fastq.Read) error {
	r.counts.Reads++
	id := readID(rd.Seq)
	return r.lane.phase("replay.read", r.parent, func(parent int64) error {
		return r.mapRead(rd, id, parent)
	})
}

func (r *replayer) mapRead(rd *fastq.Read, id uint64, parent int64) error {
	r.locs = r.locs[:0]
	r.arenaOff = 0
	if rd.Validate() != nil {
		return nil // the engine counts a malformed read as unmapped
	}
	var perr error
	r.timed("pwm.build", parent, id, &r.pwmNs, func() {
		if perr = r.fwd.FillFromRead(rd); perr == nil {
			r.rev.FillReverseComplementOf(&r.fwd)
		}
	})
	if perr != nil {
		return nil
	}
	cfg := r.cfg
	minVotes := cfg.MinSeedVotes
	if len(rd.Seq) < 2*cfg.K {
		minVotes = 1
	}
	opts := kmer.CandidateOptions{MaxCandidates: cfg.MaxCandidates, MinVotes: minVotes, MaxBucket: cfg.MaxBucket, Slack: 2}
	pad := cfg.Pad
	if cfg.AlignMode == phmm.Global {
		pad, opts.Slack = 0, 0
	}
	strands := [2]*pwm.Matrix{&r.fwd, &r.rev}
	r.cands = r.cands[:0]
	best := int32(0)
	var seedNs int64
	for si, p := range strands {
		r.timed("kmer.candidates.replay", parent, id, &seedNs, func() {
			for _, c := range r.idx.CandidatesInto(p.Calls(), opts, &r.buf) {
				r.cands = append(r.cands, strandCand{minus: si == 1, cand: c})
				best = max(best, c.Votes)
			}
		})
	}
	r.counts.Candidates += int64(len(r.cands))
	voteCut := int32(cfg.MinVoteFraction * float64(best))
	r.pending = r.pending[:0]
	for _, sc := range r.cands {
		if sc.cand.Votes < voteCut {
			continue
		}
		start := int(sc.cand.Start)
		if start >= r.ref.Len() {
			continue
		}
		window, clipped := r.ref.Window(start-pad, len(rd.Seq)+2*pad)
		if len(window) == 0 || (len(window) < len(rd.Seq) && cfg.AlignMode == phmm.Global) {
			continue
		}
		p := strands[0]
		if sc.minus {
			p = strands[1]
		}
		r.pending = append(r.pending, pendingWin{p: p, window: window, windowStart: clipped, diag: start - clipped})
	}
	if err := r.flush(len(rd.Seq), id, parent); err != nil {
		return err
	}
	for i := range r.pending {
		if r.pending[i].accepted {
			r.locs = append(r.locs, r.pending[i].loc)
		}
	}
	if len(r.locs) == 0 {
		return nil
	}
	ws := r.posteriors()
	r.timed("genome.add", parent, id, &r.addNs, func() {
		for i, loc := range r.locs {
			if ws[i] != 0 {
				r.counts.Locations++
				r.target.AddRange(loc.windowStart, loc.contribs, ws[i])
			}
		}
	})
	return nil
}

// flush aligns the read's pending windows as core's flushPending does:
// windows grouped by (length, diagonal) in first-seen order, each group
// swept in chunks of PhmmBatch lanes, single-lane chunks (and every
// window when batching is off) through the scalar banded kernel.
func (r *replayer) flush(readLen int, id uint64, parent int64) error {
	width := 1
	if r.ba != nil {
		width = r.cfg.PhmmBatch
	}
	pend := r.pending
	for start := range pend {
		if pend[start].done {
			continue
		}
		wlen, diag := len(pend[start].window), pend[start].diag
		r.group = r.group[:0]
		for k := start; k < len(pend); k++ {
			if !pend[k].done && len(pend[k].window) == wlen && pend[k].diag == diag {
				r.group = append(r.group, k)
			}
		}
		for off := 0; off < len(r.group); off += width {
			chunk := r.group[off:min(off+width, len(r.group))]
			if len(chunk) == 1 {
				if err := r.alignScalar(&pend[chunk[0]], readLen, id, parent); err != nil {
					return err
				}
				continue
			}
			r.xs, r.ys = r.xs[:0], r.ys[:0]
			for _, k := range chunk {
				r.xs = append(r.xs, pend[k].p)
				r.ys = append(r.ys, pend[k].window)
			}
			r.counts.Alignments += int64(len(chunk))
			r.batches++
			r.lanes += int64(len(chunk))
			var res []phmm.BatchResult
			var err error
			r.timed("phmm.align", parent, id, &r.alignNs, func() {
				res, err = r.ba.AlignBatch(r.xs, r.ys, diag, r.band)
			})
			if err != nil {
				return err
			}
			for l, k := range chunk {
				pend[k].done = true
				if res[l].Err != nil {
					continue
				}
				if err := r.finish(res[l].LogLik, &res[l], &pend[k], readLen, id, parent); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (r *replayer) alignScalar(pw *pendingWin, readLen int, id uint64, parent int64) error {
	pw.done = true
	r.counts.Alignments++
	r.scalar++
	var res *phmm.Result
	var err error
	r.timed("phmm.align", parent, id, &r.alignNs, func() {
		res, err = r.al.AlignBanded(pw.p, pw.window, pw.diag, r.band)
	})
	if errors.Is(err, phmm.ErrNoAlignment) {
		return nil
	}
	if err != nil {
		return err
	}
	return r.finish(res.LogLik, res, pw, readLen, id, parent)
}

type contribSource interface {
	ContributionsInto(phmm.Attribution, []genome.Vec, []float64) error
}

// finish is core's finishAlignment: the per-location likelihood
// filter, then posterior contributions with lightly grazed padding
// zeroed.
func (r *replayer) finish(logLik float64, src contribSource, pw *pendingWin, readLen int, id uint64, parent int64) error {
	if logLik/float64(readLen) < r.cfg.MinLocLogLik {
		return nil
	}
	n := len(pw.window)
	if r.arenaOff+n > len(r.arena) {
		r.arena = make([]genome.Vec, max(1024, 2*(r.arenaOff+n)))
		r.arenaOff = 0
	}
	contribs := r.arena[r.arenaOff : r.arenaOff+n : r.arenaOff+n]
	r.arenaOff += n
	clear(contribs)
	if cap(r.totals) < n {
		r.totals = make([]float64, n)
	}
	totals := r.totals[:n]
	var err error
	r.timed("phmm.contrib", parent, id, &r.contribNs, func() {
		err = src.ContributionsInto(r.cfg.Attribution, contribs, totals)
	})
	if err != nil {
		return err
	}
	covered := false
	for j := range contribs {
		if totals[j] > 0.5 {
			covered = true
		} else {
			contribs[j] = genome.Vec{}
		}
	}
	if !covered {
		return nil
	}
	r.accepted++
	pw.accepted = true
	pw.loc = replayLoc{windowStart: pw.windowStart, logLik: logLik, contribs: contribs}
	return nil
}

// posteriors is core's weights: a softmax over location likelihoods,
// locations under MinPosterior zeroed and the rest renormalized.
func (r *replayer) posteriors() []float64 {
	locs := r.locs
	if cap(r.weights) < len(locs) {
		r.weights = make([]float64, len(locs))
	}
	w := r.weights[:len(locs)]
	maxLL := math.Inf(-1)
	for _, l := range locs {
		maxLL = math.Max(maxLL, l.logLik)
	}
	sum := 0.0
	for i, l := range locs {
		w[i] = math.Exp(l.logLik - maxLL)
		sum += w[i]
	}
	surviving := 0.0
	for i := range w {
		w[i] /= sum
		if w[i] < r.cfg.MinPosterior {
			w[i] = 0
		} else {
			surviving += w[i]
		}
	}
	if surviving > 0 && surviving < 1 {
		inv := 1 / surviving
		for i := range w {
			w[i] *= inv
		}
	}
	return w
}

// cells is the DP cells both kernels computed.
func (r *replayer) cells() int64 {
	c := r.al.CellsComputed()
	if r.ba != nil {
		c += r.ba.CellsComputed()
	}
	return c
}

// programCounts maps the same sample with the real engine, serially
// and with its metrics registry on, and returns its own counters.
func programCounts(cfg core.Config, ref *genome.Reference, idx kmer.SeedIndex, mode genome.Mode, sample []*fastq.Read) (replayCounts, error) {
	reg := obs.NewRegistry()
	cfg.Workers = 1
	cfg.SeedIndex = idx
	cfg.Metrics = reg
	eng, err := core.NewEngine(ref, cfg)
	if err != nil {
		return replayCounts{}, err
	}
	acc, err := core.NewAccumulator(mode, ref.Len(), cfg)
	if err != nil {
		return replayCounts{}, err
	}
	if _, err := eng.MapReads(sample, acc, 0); err != nil {
		return replayCounts{}, err
	}
	return replayCounts{
		Reads:      int64(len(sample)),
		Candidates: reg.Counter("map.candidates").Value(),
		Alignments: reg.Counter("map.alignments").Value(),
		Cells:      reg.Counter("phmm.cells").Value(),
		Locations:  reg.Counter("map.locations").Value(),
	}, nil
}
