package kmer

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/simulate"
)

// oracleCandidates is the per-seed voting loop the staged pipeline
// replaced, kept as the reference it must match exactly: dna.PackKmer at
// every sampled offset, one lookup per seed, a per-hit % snap, a full
// sort of every voted diagonal, then the non-positive clamp and the
// MaxCandidates truncation. Votes go to a plain map so the oracle shares
// no code with the production vote table.
func oracleCandidates(ix SeedIndex, read dna.Seq, opt CandidateOptions) ([]Candidate, SeedStats) {
	lookupTotal := func(m dna.Kmer) ([]int32, int) {
		switch x := ix.(type) {
		case *Index:
			hits := x.Lookup(m)
			return hits, len(hits)
		case *LargeIndex:
			return x.lookupTotal(m)
		}
		panic("oracle: unknown index type")
	}
	stride := opt.Stride
	if stride <= 0 {
		stride = 1
	}
	minVotes := opt.MinVotes
	if minVotes <= 0 {
		minVotes = 1
	}
	k := ix.K()
	var stats SeedStats
	votes := map[int32]int32{}
	for off := 0; off+k <= len(read); off += stride {
		m, ok := dna.PackKmer(read, off, k)
		if !ok {
			continue
		}
		stats.Seeds++
		hits, total := lookupTotal(m)
		if opt.MaxBucket > 0 && total > opt.MaxBucket {
			stats.Masked++
			continue
		}
		stats.Hits += int64(len(hits))
		for _, p := range hits {
			start := p - int32(off)
			if opt.Slack > 0 {
				start -= start % int32(opt.Slack+1)
			}
			votes[start]++
		}
	}
	var cands []Candidate
	for start, v := range votes {
		if int(v) >= minVotes {
			cands = append(cands, Candidate{Start: start, Votes: v})
		}
	}
	slices.SortFunc(cands, func(a, b Candidate) int {
		if a.Votes != b.Votes {
			return int(b.Votes - a.Votes)
		}
		return int(a.Start - b.Start)
	})
	var kept []Candidate
	zeroSeen := false
	for _, c := range cands {
		if c.Start <= 0 {
			if zeroSeen {
				continue
			}
			zeroSeen = true
			c.Start = 0
		}
		kept = append(kept, c)
	}
	if opt.MaxCandidates > 0 && len(kept) > opt.MaxCandidates {
		kept = kept[:opt.MaxCandidates]
	}
	return kept, stats
}

// seedingFixture is a repeat-bearing reference with a tie-heavy tandem
// block, indexed both ways: the direct Index at k=10 and a LargeIndex
// at k=20 whose MaxStore of 2 caps hot seeds below the tested MaxBucket
// of 3, so masking must test the true count, not the stored sample.
type seedingFixture struct {
	genome  dna.Seq
	tandem  [2]int // [lo, hi) of the planted tandem block
	indexes []SeedIndex
}

func newSeedingFixture(tb testing.TB) *seedingFixture {
	tb.Helper()
	g, err := simulate.Genome(simulate.GenomeConfig{
		Length: 20_000, TandemRepeatFraction: 0.02, DispersedRepeatFraction: 0.05, Seed: 11,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// A 600-base block of a 3-base unit: every read inside it votes
	// many diagonals with exactly equal counts.
	lo := 9_000
	unit := dna.MustParseSeq("ACG")
	for i := 0; i < 600; i++ {
		g[lo+i] = unit[i%len(unit)]
	}
	direct, err := New(g, DefaultK)
	if err != nil {
		tb.Fatal(err)
	}
	large, err := NewLargeWith(g, 20, LargeConfig{MaxStore: 2, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return &seedingFixture{genome: g, tandem: [2]int{lo, lo + 600}, indexes: []SeedIndex{direct, large}}
}

// reads draws the property test's read mix: mutated reference slices
// with N bases, reads hanging off either genome end, tandem-block reads,
// and reads shorter than a seed. Half the reference-derived reads carry
// a one-base indel, which splits their votes over adjacent diagonals —
// negative ones too — so the slack snap decides how they group.
func (f *seedingFixture) reads(rng *rand.Rand, n int) []dna.Seq {
	randSeq := func(l int) dna.Seq {
		s := make(dna.Seq, l)
		for i := range s {
			s[i] = dna.Code(rng.Intn(4))
		}
		return s
	}
	g := f.genome
	var out []dna.Seq
	for len(out) < n {
		l := 30 + rng.Intn(90)
		var r dna.Seq
		switch len(out) % 5 {
		case 0: // interior, with substitutions and N bases
			st := rng.Intn(len(g) - l)
			r = g[st : st+l].Clone()
			for i := range r {
				switch x := rng.Intn(100); {
				case x < 3:
					r[i] = dna.N
				case x < 6:
					r[i] = dna.Code(rng.Intn(4))
				}
			}
		case 1: // hangs off the start: negative diagonals
			pre := rng.Intn(l - 1) // 0: the read starts exactly at 0
			r = append(randSeq(pre), g[:l-pre]...)
		case 2: // hangs off the end
			suf := 1 + rng.Intn(l-1)
			r = append(g[len(g)-(l-suf):].Clone(), randSeq(suf)...)
		case 3: // inside the tandem block: many equal-vote diagonals
			st := f.tandem[0] + rng.Intn(f.tandem[1]-f.tandem[0]-l)
			r = g[st : st+l].Clone()
		case 4: // shorter than a seed, or a pure random read
			if rng.Intn(2) == 0 {
				r = randSeq(rng.Intn(DefaultK))
			} else {
				r = randSeq(l)
			}
		}
		if len(out)%5 < 3 && rng.Intn(2) == 0 {
			i := rng.Intn(len(r))
			if rng.Intn(2) == 0 {
				r = append(r[:i:i], r[i+1:]...)
			} else {
				r = append(r[:i:i], append(dna.Seq{dna.Code(rng.Intn(4))}, r[i:]...)...)
			}
		}
		out = append(out, r)
	}
	return out
}

// assertMatchesOracle runs the staged path on a warm, shared buffer and
// requires exactly the oracle's candidates and stats.
func assertMatchesOracle(t *testing.T, ix SeedIndex, read dna.Seq, opt CandidateOptions, warm *CandidateBuf) {
	t.Helper()
	got := append([]Candidate(nil), ix.CandidatesInto(read, opt, warm)...)
	want, stats := oracleCandidates(ix, read, opt)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(warm.Stats, stats) {
		t.Fatalf("k=%d opt=%+v read=%v:\nstaged %v %+v\noracle %v %+v",
			ix.K(), opt, read, got, warm.Stats, want, stats)
	}
}

// TestCandidatesIntoMatchesOracle is the exactness property for the
// staged pipeline: over both index types, a read mix with N bases,
// off-end reads and tandem ties, and the full option grid, it returns
// exactly what the per-seed loop returns — candidates and stats.
func TestCandidatesIntoMatchesOracle(t *testing.T) {
	f := newSeedingFixture(t)
	reads := f.reads(rand.New(rand.NewSource(5)), 40)
	var warm CandidateBuf
	edgeVotes := 0
	for _, ix := range f.indexes {
		for _, slack := range []int{0, 1, 2, 5} {
			for _, stride := range []int{1, 3} {
				for _, maxCand := range []int{0, 1, 8, 64} {
					for _, minVotes := range []int{1, 2, 3} {
						for _, maxBucket := range []int{0, 3, 1024} {
							opt := CandidateOptions{Stride: stride, MaxBucket: maxBucket,
								MaxCandidates: maxCand, MinVotes: minVotes, Slack: slack}
							for _, r := range reads {
								assertMatchesOracle(t, ix, r, opt, &warm)
								for _, c := range warm.out {
									if c.Start == 0 {
										edgeVotes++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if edgeVotes == 0 {
		t.Fatal("read mix never produced a start-0 candidate; the clamp went untested")
	}
}

// TestDiagSnapMatchesTruncatedRemainder pins the division-free snap to
// Go's truncated %, negatives and both int32 extremes included.
func TestDiagSnapMatchesTruncatedRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	slacks := []int{1, 2, 3, 4, 5, 6, 7, 15, 1022, 1023, 1024, 1 << 20, math.MaxInt32 - 1}
	for s := 8; s < 70; s++ {
		slacks = append(slacks, s)
	}
	for _, slack := range slacks {
		d := int32(slack + 1)
		snap := newDiagSnap(slack)
		check := func(x int32) {
			if got, want := snap.apply(x), x-x%d; got != want {
				t.Fatalf("slack %d: snap(%d) = %d, want %d", slack, x, got, want)
			}
		}
		for _, x := range []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1} {
			check(x)
		}
		for m := int32(-5); m <= 5; m++ {
			for e := int32(-2); e <= 2; e++ {
				check(m*d + e)
			}
		}
		for i := 0; i < 20_000; i++ {
			check(int32(rng.Uint32()))
			check(int32(rng.Intn(1<<16)) - 1<<15)
		}
	}
	// Slack past the diagonal range: d = 2^31, so every diagonal but
	// MinInt32 (a multiple of d) snaps to 0, as x - x%MinInt32 does.
	snap := newDiagSnap(math.MaxInt32)
	for _, x := range []int32{0, 1, -1, 12345, -98765, math.MaxInt32, math.MinInt32} {
		if got, want := snap.apply(x), x-x%math.MinInt32; got != want {
			t.Fatalf("slack MaxInt32: snap(%d) = %d, want %d", x, got, want)
		}
	}
	if got := newDiagSnap(0).apply(-7); got != -7 {
		t.Fatalf("slack 0 must not snap: got %d", got)
	}
}

// TestCandidatesIntoWarmAllocFree: a warm buffer runs the staged path
// with zero allocations on both index types, capped and uncapped.
func TestCandidatesIntoWarmAllocFree(t *testing.T) {
	f := newSeedingFixture(t)
	reads := f.reads(rand.New(rand.NewSource(8)), 20)
	for _, ix := range f.indexes {
		for _, maxCand := range []int{0, 8} {
			opt := CandidateOptions{MaxCandidates: maxCand, MinVotes: 2, MaxBucket: 1024, Slack: 2}
			var buf CandidateBuf
			for _, r := range reads {
				ix.CandidatesInto(r, opt, &buf)
			}
			i := 0
			avg := testing.AllocsPerRun(100, func() {
				ix.CandidatesInto(reads[i%len(reads)], opt, &buf)
				i++
			})
			if avg != 0 {
				t.Errorf("k=%d MaxCandidates=%d: warm CandidatesInto allocates %.2f/op, want 0", ix.K(), maxCand, avg)
			}
		}
	}
}

// FuzzCandidatesInto asserts staged == oracle for arbitrary reads
// (bytes map to A, C, G, T, N) and options on both index types.
func FuzzCandidatesInto(f *testing.F) {
	fx := newSeedingFixture(f)
	codes := func(s dna.Seq) []byte {
		b := make([]byte, len(s))
		for i, c := range s {
			b[i] = byte(c)
		}
		return b
	}
	f.Add(codes(fx.genome[100:162]), uint8(2), uint8(0), uint8(8), uint8(2), uint8(2))
	f.Add(append([]byte{4, 4, 4, 4}, codes(fx.genome[:58])...), uint8(1), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(codes(fx.genome[fx.tandem[0]:fx.tandem[0]+80]), uint8(5), uint8(1), uint8(64), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, slack, stride, maxCand, minVotes, bucket uint8) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		read := make(dna.Seq, len(raw))
		for i, b := range raw {
			read[i] = dna.Code(b % 5) // 4 is N
		}
		opt := CandidateOptions{
			Slack:         int(slack % 8),
			Stride:        int(stride % 4),
			MaxCandidates: int(maxCand % 70),
			MinVotes:      int(minVotes % 4),
			MaxBucket:     []int{0, 3, 1024, int(bucket)}[bucket%4],
		}
		var warm CandidateBuf
		for _, ix := range fx.indexes {
			assertMatchesOracle(t, ix, read, opt, &warm)
		}
	})
}
