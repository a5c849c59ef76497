// Package kmer implements the genomic k-mer hash index GNUMAP-SNP uses
// to find putative mapping regions (paper §V, step 1; default k = 10).
//
// The index is built over a reference sequence with a two-pass
// counting-sort layout: a flat offset table of 4^k buckets pointing into
// one shared position array. For the default k = 10 the offset table has
// ~1M entries and construction is a single O(L) scan, which is what
// makes indexing a full chromosome practical. Buckets larger than a
// configurable threshold (repeat k-mers) can be masked out at query
// time so a single microsatellite does not flood the candidate list.
package kmer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"gnumap/internal/dna"
)

// DefaultK is the paper's default mer size.
const DefaultK = 10

// MaxDirectK bounds the direct-addressed offset table at 4^14 entries
// (~1 GiB of int32 would be 4^15; 4^14 = 268M entries is already the
// practical ceiling). Longer seeds use the two-level hashed LargeIndex
// (largeseed.go) instead.
const MaxDirectK = 14

// SeedIndex is the candidate-generation interface shared by the
// direct-addressed Index (k <= MaxDirectK) and the hashed LargeIndex.
// Implementations are immutable after construction and safe for
// concurrent lookups.
type SeedIndex interface {
	// K returns the indexed mer size.
	K() int
	// SeqLen returns the length of the indexed sequence.
	SeqLen() int
	// MemoryBytes reports the footprint of every retained array.
	MemoryBytes() int64
	// Candidates votes the read's seeds into mapping regions.
	Candidates(read dna.Seq, opt CandidateOptions) []Candidate
	// CandidatesInto is Candidates with caller-owned scratch.
	CandidatesInto(read dna.Seq, opt CandidateOptions, buf *CandidateBuf) []Candidate
}

// seedSource is the batch lookup behind the shared voting loop. Both
// index representations keep every stored position in one shared array;
// lookupBatch resolves each seed's bucket to a span of that array and
// returns it. total is the seed's true occurrence count in the
// reference: the direct Index stores every occurrence (total == n), the
// LargeIndex may store a capped sample of a hot seed but still reports
// the true total so repeat masking sees the real frequency.
type seedSource interface {
	K() int
	lookupBatch(seeds []seedSpan) (positions []int32)
}

// seedSpan is one packed seed of a read and, once resolved, its bucket:
// positions[lo:lo+n] of the index's shared array, with total the true
// occurrence count.
type seedSpan struct {
	kmer         dna.Kmer
	off          int32
	lo, n, total int32
}

// Build constructs the appropriate index representation for k: the
// direct-addressed Index up to MaxDirectK, the hashed LargeIndex above
// it (SNAP-style large seeds, up to dna.MaxKmerLen).
func Build(seq dna.Seq, k int) (SeedIndex, error) {
	if k > MaxDirectK {
		return NewLarge(seq, k)
	}
	return New(seq, k)
}

// Index is an immutable k-mer position index over one reference
// sequence. It is safe for concurrent lookups.
type Index struct {
	k int
	// offsets has 4^k+1 entries; bucket m occupies
	// positions[offsets[m]:offsets[m+1]].
	offsets   []int32
	positions []int32
	seqLen    int
}

// New builds an index of every k-mer in seq. K-mers containing an
// ambiguous base are not indexed (the mapper re-seeds around them).
func New(seq dna.Seq, k int) (*Index, error) {
	if k <= 0 || k > MaxDirectK {
		return nil, fmt.Errorf("kmer: k=%d out of range [1,%d]", k, MaxDirectK)
	}
	if len(seq) > 1<<31-1 {
		return nil, fmt.Errorf("kmer: sequence length %d exceeds int32 positions", len(seq))
	}
	nBuckets := 1 << (2 * uint(k))
	offsets := make([]int32, nBuckets+1)

	// Pass 1: bucket counts.
	forEachKmer(seq, k, func(m dna.Kmer, pos int32) {
		offsets[m+1]++
	})
	// Prefix-sum into offsets.
	for i := 1; i <= nBuckets; i++ {
		offsets[i] += offsets[i-1]
	}
	positions := make([]int32, offsets[nBuckets])

	// Pass 2: fill. next tracks the write cursor per bucket.
	next := make([]int32, nBuckets)
	copy(next, offsets[:nBuckets])
	forEachKmer(seq, k, func(m dna.Kmer, pos int32) {
		positions[next[m]] = pos
		next[m]++
	})
	return &Index{k: k, offsets: offsets, positions: positions, seqLen: len(seq)}, nil
}

// forEachKmer calls fn for every packable k-mer window in seq, using a
// rolling pack that restarts after ambiguous bases.
func forEachKmer(seq dna.Seq, k int, fn func(m dna.Kmer, pos int32)) {
	if len(seq) < k {
		return
	}
	var m dna.Kmer
	valid := 0 // number of consecutive concrete bases ending at i
	mask := dna.Kmer(1)<<(2*uint(k)) - 1
	for i := 0; i < len(seq); i++ {
		c := seq[i]
		if !c.IsConcrete() {
			valid = 0
			m = 0
			continue
		}
		m = (m<<2 | dna.Kmer(c)) & mask
		valid++
		if valid >= k {
			fn(m, int32(i-k+1))
		}
	}
}

// K returns the indexed mer size.
func (ix *Index) K() int { return ix.k }

// SeqLen returns the length of the indexed sequence.
func (ix *Index) SeqLen() int { return ix.seqLen }

// Lookup returns the sorted start positions of the packed k-mer. The
// returned slice aliases the index; callers must not mutate it.
func (ix *Index) Lookup(m dna.Kmer) []int32 {
	if int(m) >= len(ix.offsets)-1 {
		return nil
	}
	return ix.positions[ix.offsets[m]:ix.offsets[m+1]]
}

// BucketSize returns the number of occurrences of the packed k-mer.
func (ix *Index) BucketSize(m dna.Kmer) int { return len(ix.Lookup(m)) }

// lookupBatch implements seedSource: the direct index stores every
// occurrence, so each span is the whole bucket. The offset-table loads
// are independent across seeds, so their cache misses overlap. Seeds
// are packed at the index's k, so every kmer indexes the table.
func (ix *Index) lookupBatch(seeds []seedSpan) []int32 {
	offs := ix.offsets
	for i := range seeds {
		s := &seeds[i]
		lo, hi := offs[s.kmer], offs[s.kmer+1]
		s.lo, s.n, s.total = lo, hi-lo, hi-lo
	}
	return ix.positions
}

// MemoryBytes reports the approximate heap footprint of the index,
// used by the Table II memory accounting.
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.offsets))*4 + int64(len(ix.positions))*4
}

// Candidate is a putative mapping region: the genome offset at which the
// read would start, and the number of seed k-mers voting for it.
type Candidate struct {
	Start int32
	Votes int32
}

// CandidateOptions tunes candidate-region generation.
type CandidateOptions struct {
	// Stride is the spacing between sampled seed offsets within the
	// read; 1 samples every offset. Larger strides trade sensitivity
	// for speed. Zero means 1.
	Stride int
	// MaxBucket masks k-mers occurring more often than this in the
	// reference (repeat masking). Zero means no masking.
	MaxBucket int
	// MaxCandidates caps the number of returned regions, keeping the
	// highest-voted. Zero means no cap.
	MaxCandidates int
	// MinVotes drops regions with fewer seed votes. Zero means 1.
	MinVotes int
	// Slack merges candidate starts within this many bases of each
	// other into one region (indels shift the implied start). Zero
	// means exact-diagonal voting.
	Slack int
}

// CandidateBuf is reusable scratch for CandidatesInto, letting a
// per-worker caller run candidate generation without steady-state heap
// allocations. The zero value is ready to use.
//
// The diagonal-voting table is open-addressed (linear probing) rather
// than a Go map: per read it is cleared by bumping an epoch counter
// instead of rehashing or rezeroing, so the steady-state cost per read
// is a handful of cache-line touches with no map-bucket churn.
type CandidateBuf struct {
	// A slot is live iff its epoch == cur; key and votes are only
	// meaningful for live slots. used lists the live slots for O(live)
	// emission.
	slots []voteSlot
	used  []int32
	cur   uint32
	out   []Candidate
	// seeds holds the read's packed seeds and their resolved buckets
	// (O(read length)); sink keeps the touch pass's loads observable.
	seeds []seedSpan
	sink  int32
	// Stats describes the call that last used this buffer; it is reset
	// at the top of every CandidatesInto, so callers that want
	// per-strand selectivity read it between calls.
	Stats SeedStats
}

// SeedStats is the selectivity record of one CandidatesInto call: how
// many seeds were looked up, how many were masked as over-frequent
// (true occurrence count above MaxBucket), and how many index positions
// were voted. Hits is the work the diagonal voter actually did — the
// number the large-seed index exists to shrink.
type SeedStats struct {
	Seeds, Masked, Hits int64
}

// voteSlot is one vote-table entry. Key, count and epoch share a slot
// so a probe touches one cache line.
type voteSlot struct {
	key, votes int32
	epoch      uint32
}

// minVoteTable is the initial open-addressing table size; must be a
// power of two.
const minVoteTable = 64

// beginRead prepares the table for a new read's votes by advancing the
// epoch. On the (rare) uint32 wraparound the slots are rezeroed so
// stale epochs can never alias the new one.
func (b *CandidateBuf) beginRead() {
	if len(b.slots) == 0 {
		b.slots = make([]voteSlot, minVoteTable)
	}
	b.used = b.used[:0]
	b.cur++
	if b.cur == 0 {
		clear(b.slots)
		b.cur = 1
	}
}

// voteHits votes every hit of one seed on its snapped diagonal. The
// table is read through locals so the probe loop stays tight; claiming
// a new slot is a call that may grow the table, after which the locals
// are reloaded.
func (b *CandidateBuf) voteHits(hits []int32, off int32, snap diagSnap) {
	slots, cur := b.slots, b.cur
	mask := uint32(len(slots) - 1)
	for _, p := range hits {
		key := snap.apply(p - off)
		// Fibonacci-style multiplicative hash; the table size is a
		// power of two so the low bits of the product index it directly.
		for i := uint32(key) * 2654435761 & mask; ; i = (i + 1) & mask {
			s := &slots[i]
			if s.epoch != cur {
				b.claim(i, key)
				slots, cur = b.slots, b.cur
				mask = uint32(len(slots) - 1)
				break
			}
			if s.key == key {
				s.votes++
				break
			}
		}
	}
}

// claim makes free slot i the first vote for key, growing the table
// when it passes half full.
func (b *CandidateBuf) claim(i uint32, key int32) {
	b.slots[i] = voteSlot{key: key, votes: 1, epoch: b.cur}
	b.used = append(b.used, int32(i))
	if 2*len(b.used) >= len(b.slots) {
		b.growTable()
	}
}

// growTable doubles the table and reinserts the live slots, keeping the
// load at most 1/2 so a probe for a new diagonal — the common case on
// repeat-heavy reads — stays short. Growth allocates, but the table
// never shrinks, so a warm buffer reaches its high-water size once and
// then runs allocation-free.
func (b *CandidateBuf) growTable() {
	old, oldUsed := b.slots, b.used
	b.slots = make([]voteSlot, 2*len(old))
	b.used = make([]int32, 0, len(oldUsed)*2)
	b.cur = 1
	mask := uint32(len(b.slots) - 1)
	for _, slot := range oldUsed {
		e := old[slot]
		for i := uint32(e.key) * 2654435761 & mask; ; i = (i + 1) & mask {
			if b.slots[i].epoch != b.cur {
				b.slots[i] = voteSlot{key: e.key, votes: e.votes, epoch: b.cur}
				b.used = append(b.used, int32(i))
				break
			}
		}
	}
}

// Candidates seeds every (strided) k-mer of the read into the index and
// votes on implied read start positions ("diagonals"). It returns
// candidates sorted by descending votes, ties by ascending start.
func (ix *Index) Candidates(read dna.Seq, opt CandidateOptions) []Candidate {
	return ix.CandidatesInto(read, opt, &CandidateBuf{})
}

// CandidatesInto is Candidates with caller-owned scratch: the returned
// slice aliases buf and is invalidated by the next CandidatesInto call
// with the same buf.
func (ix *Index) CandidatesInto(read dna.Seq, opt CandidateOptions, buf *CandidateBuf) []Candidate {
	return candidatesInto(ix, read, opt, buf)
}

// candidatesInto is the candidate generator shared by every index
// representation. It runs in four stages so that the index's memory
// traffic, not one seed's round trip at a time, sets the pace:
//
//  1. rolling-pack every sampled seed of the read;
//  2. resolve all bucket bounds in one loop (independent loads, so their
//     cache misses overlap);
//  3. apply repeat masking and touch each surviving bucket's first
//     position, again overlapping the misses;
//  4. vote every position on its (slack-snapped) diagonal.
//
// Repeat masking (MaxBucket) tests the seed's true occurrence count, so
// a frequency-capped index masks exactly the seeds the direct index
// would. Selection then keeps the best MaxCandidates diagonals.
func candidatesInto(ix seedSource, read dna.Seq, opt CandidateOptions, buf *CandidateBuf) []Candidate {
	stride := opt.Stride
	if stride <= 0 {
		stride = 1
	}
	minVotes := opt.MinVotes
	if minVotes <= 0 {
		minVotes = 1
	}
	buf.beginRead()
	buf.Stats = SeedStats{}

	seeds := packSeeds(buf.seeds[:0], read, ix.K(), stride)
	buf.seeds = seeds
	buf.Stats.Seeds = int64(len(seeds))
	positions := ix.lookupBatch(seeds)

	var touch int32
	for i := range seeds {
		s := &seeds[i]
		if opt.MaxBucket > 0 && int(s.total) > opt.MaxBucket {
			buf.Stats.Masked++
			s.n = 0
			continue
		}
		if s.n > 0 {
			buf.Stats.Hits += int64(s.n)
			touch ^= positions[s.lo]
		}
	}
	buf.sink = touch

	// Vote on the true (possibly negative) diagonals, snapped to the
	// slack grid so small indel shifts coalesce. Clamping here would
	// pool every read-hangs-off-the-left-edge diagonal into position 0
	// and inflate its vote count.
	snap := newDiagSnap(opt.Slack)
	for _, s := range seeds {
		buf.voteHits(positions[int(s.lo):int(s.lo)+int(s.n)], s.off, snap)
	}
	return buf.selectTop(minVotes, opt.MaxCandidates)
}

// packSeeds appends every packable seed starting at a multiple of
// stride: the rolling equivalent of dna.PackKmer at each sampled offset
// (a window packs iff its k bases are all concrete).
func packSeeds(seeds []seedSpan, read dna.Seq, k, stride int) []seedSpan {
	mask := dna.Kmer(1)<<(2*uint(k)) - 1
	var m dna.Kmer
	valid := 0
	for i, c := range read {
		if !c.IsConcrete() {
			// Bases before the N shift out of the mask within k steps,
			// which is exactly when valid reaches k again.
			valid = 0
			continue
		}
		m = (m<<2 | dna.Kmer(c)) & mask
		valid++
		if off := i - k + 1; valid >= k && (stride == 1 || off%stride == 0) {
			seeds = append(seeds, seedSpan{kmer: m, off: int32(off)})
		}
	}
	return seeds
}

// diagSnap snaps a diagonal x to x - x%d for the grid step d = Slack+1,
// with Go's truncated % (the remainder takes x's sign, so negative
// diagonals land on a uniform grid too: -6, -3, 0, 3 for slack 2). It
// replaces the per-hit division with a multiply by the precomputed
// reciprocal m = ceil(2^64/d): for |x| <= 2^31 and d <= 2^31 the high
// word of m*|x| is exactly floor(|x|/d) (DESIGN.md §17).
type diagSnap struct {
	d uint64 // grid step; 0 disables snapping
	m uint64 // ceil(2^64 / d)
}

// newDiagSnap precomputes the snap for a slack. A slack of 2^31-1 or
// more uses d = 2^31, which snaps every diagonal but MinInt32 to 0.
func newDiagSnap(slack int) diagSnap {
	if slack <= 0 {
		return diagSnap{}
	}
	d := uint64(1) << 31
	if slack < math.MaxInt32 {
		d = uint64(slack) + 1
	}
	return diagSnap{d: d, m: ^uint64(0)/d + 1}
}

// apply returns x - x%d without dividing: sign(x) * floor(|x|/d) * d.
func (s diagSnap) apply(x int32) int32 {
	if s.d == 0 {
		return x
	}
	neg := x >> 31 // 0 or -1
	a := uint64(uint32((x ^ neg) - neg))
	q, _ := bits.Mul64(s.m, a)
	return (int32(q*s.d) ^ neg) - neg
}

// selectTop emits the voted diagonals with at least minVotes votes,
// ordered by descending votes, ties by ascending start, keeping the
// best limit of them (limit <= 0 keeps all).
//
// Non-positive diagonals (the read hangs off the reference start) all
// describe the same leftmost alignment window, so only the best of them
// is kept, at start 0 — keeping the best rather than summing avoids
// pooling their votes. That candidate ranks exactly where the full sort
// would put it (its start, negative or 0, sorts before every positive
// start with the same votes), so collapsing it before the bounded
// insertion equals sorting everything, clamping, then truncating.
func (b *CandidateBuf) selectTop(minVotes, limit int) []Candidate {
	cands := b.out[:0]
	edgeVotes := int32(0) // best non-positive diagonal; votes are >= 1
	for _, slot := range b.used {
		c := Candidate{Start: b.slots[slot].key, Votes: b.slots[slot].votes}
		if int(c.Votes) < minVotes {
			continue
		}
		if c.Start <= 0 {
			edgeVotes = max(edgeVotes, c.Votes)
			continue
		}
		cands = pushTop(cands, c, limit)
	}
	if edgeVotes > 0 {
		cands = pushTop(cands, Candidate{Start: 0, Votes: edgeVotes}, limit)
	}
	if limit <= 0 {
		slices.SortFunc(cands, func(a, b Candidate) int {
			if a.Votes != b.Votes {
				return int(b.Votes - a.Votes)
			}
			return int(a.Start - b.Start)
		})
	}
	b.out = cands
	return cands
}

// ranksBefore is the candidate order: more votes first, then lower start.
func ranksBefore(a, b Candidate) bool {
	return a.Votes > b.Votes || a.Votes == b.Votes && a.Start < b.Start
}

// pushTop adds c to the rank-ordered top-limit list (insertion from the
// tail, so a candidate that does not beat the current worst costs one
// compare). With limit <= 0 it only appends; the caller sorts.
func pushTop(top []Candidate, c Candidate, limit int) []Candidate {
	if limit <= 0 {
		return append(top, c)
	}
	n := len(top)
	if n == limit {
		if !ranksBefore(c, top[n-1]) {
			return top
		}
		n--
	} else {
		top = append(top, c)
	}
	i := n
	for ; i > 0 && ranksBefore(c, top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = c
	return top
}
