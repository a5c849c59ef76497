package gnumap

import (
	"path/filepath"
	"testing"
)

// End-to-end identity: the streaming pipeline (bounded memory, FASTQ
// file source) must produce exactly the SNP calls of the slice-based
// path, single-process and on a 4-node streamed cluster. Runs under
// -race in CI (make race covers the root package).

// sameCalls compares call sets by position and allele (scores are
// float-order sensitive and not part of the identity contract).
func sameCalls(t *testing.T, label string, got, want []SNPCall) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d calls, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].GlobalPos != want[i].GlobalPos || got[i].Allele != want[i].Allele {
			t.Fatalf("%s: call %d = %d/%v, want %d/%v",
				label, i, got[i].GlobalPos, got[i].Allele, want[i].GlobalPos, want[i].Allele)
		}
	}
}

func TestStreamingIdentityE2E(t *testing.T) {
	ds := dataset(t)
	fq := filepath.Join(t.TempDir(), "reads.fq")
	if err := WriteReads(fq, ds.Reads, Sanger); err != nil {
		t.Fatal(err)
	}
	engCfg := EngineConfig{Workers: 4, Batch: 32, Queue: 2}

	// Slice baseline.
	p, err := NewPipeline(ds.Reference, Options{Engine: engCfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		t.Fatal(err)
	}
	want, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline called no SNPs; dataset too weak for an identity test")
	}

	// np=1: stream the FASTQ file through the bounded pipeline, and
	// assert the acceptance bound via the observability gauge.
	reg := NewMetricsRegistry()
	streamCfg := engCfg
	streamCfg.Metrics = reg
	sp, err := NewPipeline(ds.Reference, Options{Engine: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenReads(fq, Sanger)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sp.MapReadsFrom(src)
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mapped+stats.Unmapped != int64(len(ds.Reads)) {
		t.Fatalf("streaming stats cover %d reads, want %d", stats.Mapped+stats.Unmapped, len(ds.Reads))
	}
	peak := reg.Gauge("stream.peak.resident.reads").Value()
	if peak <= 0 {
		t.Fatal("stream.peak.resident.reads never set")
	}
	if limit := float64(engCfg.Workers * engCfg.Batch * engCfg.Queue); peak > limit {
		t.Errorf("reads in flight peaked at %v, above workers*batch*queue = %v", peak, limit)
	}
	got, _, err := sp.Call()
	if err != nil {
		t.Fatal(err)
	}
	sameCalls(t, "np=1 streaming", got, want)

	// np=4: rank 0 streams the file, shards are dealt round-robin.
	src4, err := OpenReads(fq, Sanger)
	if err != nil {
		t.Fatal(err)
	}
	calls4, st4, err := RunCluster(4, Channels, ReadSplit, ds.Reference, src4, Options{Engine: engCfg})
	if cerr := src4.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if st4.Mapped+st4.Unmapped != int64(len(ds.Reads)) {
		t.Fatalf("np=4 stats cover %d reads, want %d", st4.Mapped+st4.Unmapped, len(ds.Reads))
	}
	sameCalls(t, "np=4 streaming", calls4, want)
}

// TestStreamingGenomeSplitFallback: modes that need the whole read set
// (genome-split) must transparently materialize the stream and still
// match the baseline call set.
func TestStreamingGenomeSplitFallback(t *testing.T) {
	ds := dataset(t)
	p, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		t.Fatal(err)
	}
	want, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	calls, _, err := RunCluster(3, Channels, GenomeSplit,
		ds.Reference, SliceReadSource(ds.Reads), Options{Engine: EngineConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sameCalls(t, "genome-split fallback", calls, want)
}

// TestStreamingReportCarriesStreamMetrics: the per-rank observability
// path must surface the streaming gauges in the merged report.
func TestStreamingReportCarriesStreamMetrics(t *testing.T) {
	ds := dataset(t)
	calls, _, report, err := RunClusterReport(2, Channels, ReadSplit,
		ds.Reference, SliceReadSource(ds.Reads), Options{Engine: EngineConfig{Workers: 2, Batch: 32, Queue: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("no calls from streamed cluster run")
	}
	if report == nil {
		t.Fatal("no metrics report")
	}
	if n := report.Merged.Counters["stream.reads"]; n != int64(len(ds.Reads)) {
		t.Errorf("merged stream.reads = %d, want %d", n, len(ds.Reads))
	}
	if report.Merged.Gauges["stream.peak.resident.reads"] <= 0 {
		t.Error("merged report missing stream.peak.resident.reads")
	}
}
