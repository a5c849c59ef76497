package kmer

import (
	"math/rand"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/simulate"
)

func benchGenome(b *testing.B, n int) dna.Seq {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	g := make(dna.Seq, n)
	for i := range g {
		g[i] = dna.Code(rng.Intn(4))
	}
	return g
}

func BenchmarkIndexBuild1M(b *testing.B) {
	g := benchGenome(b, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(g, DefaultK); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g))*float64(b.N)/b.Elapsed().Seconds(), "bases/s")
}

func BenchmarkCandidates62(b *testing.B) {
	g := benchGenome(b, 1_000_000)
	idx, err := New(g, DefaultK)
	if err != nil {
		b.Fatal(err)
	}
	read := g[500_000:500_062].Clone()
	read[31] = dna.Code((int(read[31]) + 1) % 4)
	opts := CandidateOptions{MaxCandidates: 8, MinVotes: 2, MaxBucket: 1024, Slack: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := idx.Candidates(read, opts); len(got) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkCandidatesInto times warm-scratch candidate generation on a
// 2 Mbp reference with the read simulator's default repeats (tandem
// 0.02, dispersed 0.05), cycling through 4,096 distinct reads so the
// index stays cold the way it is in a real run — one hot read would
// keep every bucket in cache and hide the memory traffic the staged
// pipeline overlaps. It reports index hits and nanoseconds per read.
func BenchmarkCandidatesInto(b *testing.B) {
	g, err := simulate.Genome(simulate.GenomeConfig{
		Length: 2_000_000, TandemRepeatFraction: 0.02, DispersedRepeatFraction: 0.05, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := New(g, DefaultK)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	reads := make([]dna.Seq, 4096)
	for i := range reads {
		st := rng.Intn(len(g) - 62)
		r := g[st : st+62].Clone()
		r[rng.Intn(62)] = dna.Code(rng.Intn(4))
		reads[i] = r
	}
	opts := CandidateOptions{MaxCandidates: 8, MinVotes: 2, MaxBucket: 1024, Slack: 2}
	var buf CandidateBuf
	hits := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCands = idx.CandidatesInto(reads[i%len(reads)], opts, &buf)
		hits += buf.Stats.Hits
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/read")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/read")
}

// benchCands keeps the benchmarked result live.
var benchCands []Candidate
