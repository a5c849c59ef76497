package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/kmer"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the traced process was started; Parent is 0 for a top-level
// phase; Read identifies the read a per-read span belongs to (0 for
// spans that belong to no single read).
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64
	Read       uint64
}

// recorder collects spans in memory. Each goroutine records into its
// own lane, so the hot seams take no lock; lanes are merged once the
// run is over.
type recorder struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	rec   *recorder
	spans []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) newLane() *lane {
	l := &lane{rec: r}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.base).Nanoseconds() }

// add records a finished span with a fresh ID.
func (l *lane) add(name string, parent int64, read uint64, t0, t1 time.Time) {
	l.addID(l.rec.newID(), name, parent, read, t0, t1)
}

func (l *lane) addID(id int64, name string, parent int64, read uint64, t0, t1 time.Time) {
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: l.rec.since(t0), End: l.rec.since(t1), Read: read,
	})
}

// phase runs fn inside a span; fn receives the span's ID so that spans
// it causes can name it as their parent.
func (l *lane) phase(name string, parent int64, fn func(id int64) error) error {
	id := l.rec.newID()
	t0 := time.Now()
	err := fn(id)
	l.addID(id, name, parent, 0, t0, time.Now())
	return err
}

// lastSeconds is the duration of the lane's latest span.
func (l *lane) lastSeconds() float64 {
	s := l.spans[len(l.spans)-1]
	return float64(s.End-s.Start) / 1e9
}

// all returns every recorded span, ordered by start time. Call it only
// after the goroutines writing the lanes have finished.
func (r *recorder) all() []span {
	var out []span
	for _, l := range r.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// readID identifies a read by its bases, so the FASTQ seam (which sees
// the read) and the seed seam (which sees the forward-strand base
// calls, a copy of the same bases) agree without touching the program.
// Identical reads share an identifier.
func readID(seq dna.Seq) uint64 {
	// FNV-1a, inlined to keep the seams allocation-free.
	h := uint64(14695981039346656037)
	for _, c := range seq {
		h ^= uint64(c)
		h *= 1099511628211
	}
	if h == 0 {
		return 1
	}
	return h
}

// tracedSource is the FASTQ seam: it wraps the fastq.Source handed to
// the pipeline and records one fastq.next span per read. The pipeline
// calls Next from a single producer goroutine.
type tracedSource struct {
	src    fastq.Source
	lane   *lane
	parent int64
	reads  int64
	ns     int64
}

func (s *tracedSource) Next() (*fastq.Read, error) {
	t0 := time.Now()
	rd, err := s.src.Next()
	t1 := time.Now()
	var id uint64
	if rd != nil {
		id = readID(rd.Seq)
		s.reads++
		s.ns += t1.Sub(t0).Nanoseconds()
	}
	s.lane.add("fastq.next", s.parent, id, t0, t1)
	return rd, err
}

// tracedIndex is the seed seam: a kmer.SeedIndex injected through
// core.Config.SeedIndex that records one kmer.candidates span per
// CandidatesInto call and totals the CandidateBuf selectivity stats.
// The engine gives every mapping worker its own CandidateBuf and
// queries the forward then the reverse strand of each read on it, so
// the buffer identifies the worker and alternate calls the read.
type tracedIndex struct {
	kmer.SeedIndex
	rec    *recorder
	parent int64
	mu     sync.Mutex
	bufs   map[*kmer.CandidateBuf]*seedLane
}

type seedLane struct {
	lane                         *lane
	calls                        int64
	read                         uint64
	ns, hits, masked, candidates int64
}

func newTracedIndex(ix kmer.SeedIndex, rec *recorder) *tracedIndex {
	return &tracedIndex{SeedIndex: ix, rec: rec, bufs: map[*kmer.CandidateBuf]*seedLane{}}
}

func (t *tracedIndex) CandidatesInto(read dna.Seq, opt kmer.CandidateOptions, buf *kmer.CandidateBuf) []kmer.Candidate {
	t.mu.Lock()
	sl := t.bufs[buf]
	if sl == nil {
		sl = &seedLane{lane: t.rec.newLane()}
		t.bufs[buf] = sl
	}
	t.mu.Unlock()
	if sl.calls%2 == 0 {
		sl.read = readID(read)
	}
	sl.calls++
	t0 := time.Now()
	out := t.SeedIndex.CandidatesInto(read, opt, buf)
	t1 := time.Now()
	sl.lane.add("kmer.candidates", t.parent, sl.read, t0, t1)
	sl.ns += t1.Sub(t0).Nanoseconds()
	sl.hits += buf.Stats.Hits
	sl.masked += buf.Stats.Masked
	sl.candidates += int64(len(out))
	return out
}

// seedTotals sums the per-worker seed counters of every wrapped index
// (call after mapping).
func seedTotals(ts []*tracedIndex) seedLane {
	var s seedLane
	for _, t := range ts {
		for _, sl := range t.bufs {
			s.calls += sl.calls
			s.ns += sl.ns
			s.hits += sl.hits
			s.masked += sl.masked
			s.candidates += sl.candidates
		}
	}
	return s
}

// ledgerRow charges one span name: how often it ran, its total time,
// and its self time — span time minus the part of it that its child
// spans cover.
type ledgerRow struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	PerRead float64 `json:"ns_per_read,omitempty"`
}

func ledger(spans []span, reads int64) []ledgerRow {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*ledgerRow{}
	var order []string
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &ledgerRow{Name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		r.Count++
		r.TotalS += float64(d) / 1e9
		r.SelfS += float64(d-covered(children[s.ID], s.Start, s.End)) / 1e9
	}
	out := make([]ledgerRow, 0, len(order))
	for _, name := range order {
		r := rows[name]
		if reads > 0 && r.Count >= reads {
			r.PerRead = r.TotalS * 1e9 / float64(reads)
		}
		out = append(out, *r)
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every span as a tab-separated row.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns\tread")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%016x\n", s.ID, s.Parent, s.Name, s.Start, s.End, s.Read)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
