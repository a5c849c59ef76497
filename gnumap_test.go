package gnumap

import (
	"time"

	"bytes"
	"gnumap/internal/obs"
	"strings"
	"testing"
)

func dataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := SimulateDataset(SimConfig{
		GenomeLength: 40000,
		SNPCount:     4,
		Coverage:     12,
		Seed:         101,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSimulateDatasetValidation(t *testing.T) {
	if _, err := SimulateDataset(SimConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := SimulateDataset(SimConfig{GenomeLength: 1000}); err == nil {
		t.Error("zero SNP count accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	ds := dataset(t)
	p, err := NewPipeline(ds.Reference, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.ReferenceLength() != 40000 {
		t.Errorf("reference length = %d", p.ReferenceLength())
	}
	st, err := p.MapReads(ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped == 0 {
		t.Fatal("nothing mapped")
	}
	calls, cs, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Tested == 0 {
		t.Error("no positions tested")
	}
	m := Evaluate(calls, ds.Truth)
	if m.TP < 3 {
		t.Errorf("recovered %d/%d SNPs", m.TP, len(ds.Truth))
	}
	var buf bytes.Buffer
	if err := p.WriteVCF(&buf, calls); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "##fileformat=VCFv4.2") {
		t.Error("VCF output malformed")
	}
	if p.AccumulatorMemoryBytes() <= 0 || p.IndexMemoryBytes() <= 0 {
		t.Error("memory accounting non-positive")
	}
}

func TestPipelineIncrementalMapping(t *testing.T) {
	ds := dataset(t)
	whole, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := whole.MapReads(ds.Reads); err != nil {
		t.Fatal(err)
	}
	parts, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	half := len(ds.Reads) / 2
	if _, err := parts.MapReads(ds.Reads[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := parts.MapReads(ds.Reads[half:]); err != nil {
		t.Fatal(err)
	}
	cw, _, err := whole.Call()
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := parts.Call()
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != len(cp) {
		t.Fatalf("incremental mapping changed calls: %d vs %d", len(cp), len(cw))
	}
}

func TestPipelineMemoryModes(t *testing.T) {
	ds := dataset(t)
	var mems []int64
	for _, mode := range []MemoryMode{MemNorm, MemCharDisc, MemCentDisc} {
		p, err := NewPipeline(ds.Reference, Options{Memory: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.MapReads(ds.Reads); err != nil {
			t.Fatal(err)
		}
		calls, _, err := p.Call()
		if err != nil {
			t.Fatal(err)
		}
		m := Evaluate(calls, ds.Truth)
		if mode != MemCentDisc && m.TP < 3 {
			t.Errorf("%v recovered %d/%d", mode, m.TP, len(ds.Truth))
		}
		mems = append(mems, p.AccumulatorMemoryBytes())
	}
	if !(mems[0] > mems[1] && mems[1] > mems[2]) {
		t.Errorf("memory ordering: %v", mems)
	}
}

func TestDiploidPipeline(t *testing.T) {
	ds, err := SimulateDataset(SimConfig{
		GenomeLength: 40000,
		SNPCount:     4,
		HetFraction:  1,
		Coverage:     25,
		Seed:         103,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(ds.Reference, Options{Caller: CallerConfig{Ploidy: Diploid}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		t.Fatal(err)
	}
	calls, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(calls, ds.Truth)
	if m.TP < 3 {
		t.Errorf("diploid recovered %d/%d", m.TP, len(ds.Truth))
	}
}

func TestFileRoundTrips(t *testing.T) {
	ds := dataset(t)
	dir := t.TempDir()
	if err := WriteReference(dir+"/ref.fa", ds.Reference); err != nil {
		t.Fatal(err)
	}
	if err := WriteReads(dir+"/reads.fq", ds.Reads[:100], Sanger); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadReference(dir + "/ref.fa")
	if err != nil {
		t.Fatal(err)
	}
	reads, err := LoadReads(dir+"/reads.fq", Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 1 || len(ref[0].Seq) != 40000 {
		t.Errorf("reference round trip wrong: %d contigs", len(ref))
	}
	if len(reads) != 100 || reads[0].Seq.String() != ds.Reads[0].Seq.String() {
		t.Errorf("reads round trip wrong")
	}
}

func TestRunClusterBothModes(t *testing.T) {
	ds := dataset(t)
	// Single-process reference result.
	p, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1}})
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

	for _, mode := range []SplitMode{ReadSplit, GenomeSplit} {
		calls, st, err := RunCluster(3, Channels, mode,
			ds.Reference, SliceReadSource(ds.Reads), Options{Engine: EngineConfig{Workers: 1}})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if st.Mapped+st.Unmapped != int64(len(ds.Reads)) {
			t.Errorf("%v: stats cover %d reads, want %d", mode, st.Mapped+st.Unmapped, len(ds.Reads))
		}
		if len(calls) != len(want) {
			t.Errorf("%v: %d calls vs single-process %d", mode, len(calls), len(want))
			continue
		}
		for i := range want {
			if calls[i].GlobalPos != want[i].GlobalPos || calls[i].Allele != want[i].Allele {
				t.Errorf("%v: call %d differs", mode, i)
			}
		}
	}
}

func TestRunClusterValidation(t *testing.T) {
	ds := dataset(t)
	if _, _, err := RunCluster(2, Channels, SplitMode(9), ds.Reference, SliceReadSource(ds.Reads[:10]), Options{}); err == nil {
		t.Error("bad split mode accepted")
	}
	if _, _, err := RunCluster(2, Channels, ReadSplit, nil, SliceReadSource(ds.Reads[:10]), Options{}); err == nil {
		t.Error("nil reference accepted")
	}
}

func TestSplitModeString(t *testing.T) {
	if ReadSplit.String() != "read-split" || GenomeSplit.String() != "genome-split" {
		t.Error("split mode names wrong")
	}
	if SplitMode(9).String() != "SplitMode(9)" {
		t.Error("unknown mode formatting wrong")
	}
}

func TestPipelineSAMAndPileup(t *testing.T) {
	ds := dataset(t)
	p, err := NewPipeline(ds.Reference, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads[:500]); err != nil {
		t.Fatal(err)
	}
	var sam bytes.Buffer
	if err := p.WriteSAM(&sam, ds.Reads[:50]); err != nil {
		t.Fatal(err)
	}
	out := sam.String()
	if !strings.Contains(out, "@SQ\tSN:sim\tLN:40000") {
		t.Errorf("SAM header missing:\n%.200s", out)
	}
	dataLines := 0
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(l, "@") {
			dataLines++
		}
	}
	if dataLines != 50 {
		t.Errorf("%d SAM records for 50 reads", dataLines)
	}
	var pu bytes.Buffer
	if err := p.WritePileup(&pu, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(pu.String(), "#contig\tpos\tref") {
		t.Errorf("pileup header missing:\n%.100s", pu.String())
	}
	if strings.Count(pu.String(), "\n") < 100 {
		t.Errorf("pileup suspiciously small: %d lines", strings.Count(pu.String(), "\n"))
	}
}

func TestPipelineSaveLoadState(t *testing.T) {
	ds := dataset(t)
	p1, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	half := len(ds.Reads) / 2
	if _, err := p1.MapReads(ds.Reads[:half]); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := p1.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	// Resume in a fresh pipeline and finish the second half.
	p2, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.LoadState(&state); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.MapReads(ds.Reads[half:]); err != nil {
		t.Fatal(err)
	}
	// Compare against an uninterrupted run.
	if _, err := p1.MapReads(ds.Reads[half:]); err != nil {
		t.Fatal(err)
	}
	c1, _, err := p1.Call()
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := p2.Call()
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("checkpoint/resume changed calls: %d vs %d", len(c2), len(c1))
	}
	for i := range c1 {
		if c1[i].GlobalPos != c2[i].GlobalPos || c1[i].Allele != c2[i].Allele {
			t.Errorf("call %d differs after resume", i)
		}
	}
	// Mismatched pipeline rejects the state.
	other, err := SimulateDataset(SimConfig{GenomeLength: 10_000, SNPCount: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := NewPipeline(other.Reference, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var state2 bytes.Buffer
	if err := p1.SaveState(&state2); err != nil {
		t.Fatal(err)
	}
	if err := p3.LoadState(&state2); err == nil {
		t.Error("state for a different reference accepted")
	}
}

func TestMultiContigPipeline(t *testing.T) {
	// Two contigs, one SNP each; reads simulated per contig so every
	// read belongs unambiguously to one contig.
	dsA, err := SimulateDataset(SimConfig{GenomeLength: 30_000, SNPCount: 2, Coverage: 12, Seed: 201})
	if err != nil {
		t.Fatal(err)
	}
	dsB, err := SimulateDataset(SimConfig{GenomeLength: 20_000, SNPCount: 2, Coverage: 12, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	reference := []*Contig{
		{Name: "chrA", Seq: dsA.Reference[0].Seq},
		{Name: "chrB", Seq: dsB.Reference[0].Seq},
	}
	p, err := NewPipeline(reference, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reads := append(append([]*Read{}, dsA.Reads...), dsB.Reads...)
	if _, err := p.MapReads(reads); err != nil {
		t.Fatal(err)
	}
	calls, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	// Expected: dsA's truth at chrA-relative positions, dsB's at chrB.
	byContig := map[string]map[int]bool{"chrA": {}, "chrB": {}}
	for _, c := range calls {
		if byContig[c.Contig] == nil {
			t.Fatalf("call on unknown contig %q", c.Contig)
		}
		byContig[c.Contig][c.Pos] = true
	}
	tp := 0
	for _, s := range dsA.Truth {
		if byContig["chrA"][s.Pos] {
			tp++
		}
	}
	for _, s := range dsB.Truth {
		if byContig["chrB"][s.Pos] {
			tp++
		}
	}
	if tp < 3 {
		t.Errorf("multi-contig recovered %d/4 SNPs; calls=%+v", tp, calls)
	}
	totalFP := len(calls) - tp
	if totalFP > 1 {
		t.Errorf("%d false positives across contigs", totalFP)
	}
	// VCF must carry per-contig coordinates.
	var buf bytes.Buffer
	if err := p.WriteVCF(&buf, calls); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "chrA\t") || !strings.Contains(buf.String(), "chrB\t") {
		t.Errorf("VCF missing contig names:\n%s", buf.String())
	}
}

func TestFitPHMMEndToEnd(t *testing.T) {
	ds := dataset(t)
	params, err := FitPHMM(ds.Reference, ds.Reads[:800], 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := params.Validate(); err != nil {
		t.Fatalf("fitted params invalid: %v", err)
	}
	// The dataset has no indels: fitted gap-open must not exceed the
	// default.
	if params.TMG > DefaultPHMMParams().TMG {
		t.Errorf("fitted TMG %v > default %v on indel-free data", params.TMG, DefaultPHMMParams().TMG)
	}
	// Mapping with the fitted parameters still recovers the SNPs.
	opts := Options{}
	opts.Engine.PHMM = params
	p, err := NewPipeline(ds.Reference, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		t.Fatal(err)
	}
	calls, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(calls, ds.Truth)
	if m.TP < 3 {
		t.Errorf("fitted-params pipeline recovered %d/%d", m.TP, len(ds.Truth))
	}
}

// The repeats example's claim as a regression test: a SNP inside an
// exact duplication is recovered by the marginal engine (as a het —
// the copies blend) and lost by the MAQ-like baseline, which discards
// every ambiguous read.
func TestRepeatRegionSNPRecovery(t *testing.T) {
	reference, err := SimulateGenome(SimConfig{GenomeLength: 60_000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	g := reference[0].Seq
	copy(g[40_000:41_500], g[20_000:21_500])
	truth, err := PlantSNPs(reference, []int{20_700}, 33)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := SimulateReadsFrom(reference, truth, SimConfig{Coverage: 14, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(reference, Options{Caller: CallerConfig{Ploidy: Diploid}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(reads); err != nil {
		t.Fatal(err)
	}
	calls, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range calls {
		if c.GlobalPos == 20_700 && c.AltAllele() == AlleleOf(truth[0].Alt) {
			found = true
		}
	}
	if !found {
		t.Errorf("marginal engine missed the repeat SNP: %+v", calls)
	}
	bres, err := RunBaseline(reference, reads, BaselineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range bres.Calls {
		if c.GlobalPos == 20_700 {
			t.Errorf("baseline unexpectedly called the repeat SNP (it should have discarded the reads)")
		}
	}
	if bres.Discarded == 0 {
		t.Error("baseline discarded nothing despite the exact duplication")
	}
}

// TestGenomeSplitGlobalFDRMatchesSingleProcess pins the headline PR-3
// bugfix: under Benjamini-Hochberg control the rejection threshold for
// each position depends on the rank of its p-value in the FULL sorted
// list, so applying BH per genome shard (shard-local list, shard-local
// n) produced call sets that changed with the node count. The fix
// gathers LRT candidates to rank 0 and runs one global BH pass, so a
// genome-split run of any size must match a single-process run exactly.
func TestGenomeSplitGlobalFDRMatchesSingleProcess(t *testing.T) {
	ds, err := SimulateDataset(SimConfig{
		GenomeLength: 40000,
		SNPCount:     12,
		Coverage:     5, // thin coverage: borderline p-values near the BH cut
		Seed:         202,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Engine: EngineConfig{Workers: 1},
		Caller: CallerConfig{UseFDR: true},
	}
	p, err := NewPipeline(ds.Reference, opts)
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
		t.Fatal("single-process FDR run produced no calls; test is vacuous")
	}
	for _, nodes := range []int{1, 4} {
		calls, st, err := RunCluster(nodes, Channels, GenomeSplit, ds.Reference, SliceReadSource(ds.Reads), opts)
		if err != nil {
			t.Fatalf("np=%d: %v", nodes, err)
		}
		if st.Mapped+st.Unmapped != int64(len(ds.Reads)) {
			t.Errorf("np=%d: stats cover %d reads, want %d", nodes, st.Mapped+st.Unmapped, len(ds.Reads))
		}
		if len(calls) != len(want) {
			t.Fatalf("np=%d: %d calls vs single-process %d", nodes, len(calls), len(want))
		}
		for i := range want {
			if calls[i].GlobalPos != want[i].GlobalPos || calls[i].Allele != want[i].Allele {
				t.Errorf("np=%d: call %d differs: pos %d/%v vs want %d/%v", nodes, i,
					calls[i].GlobalPos, calls[i].Allele, want[i].GlobalPos, want[i].Allele)
			}
		}
	}
}

func TestRunClusterReportHealthy(t *testing.T) {
	ds := dataset(t)
	calls, st, report, err := RunClusterReport(3, Channels, GenomeSplit,
		ds.Reference, SliceReadSource(ds.Reads), Options{Engine: EngineConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Error("no calls from a healthy run")
	}
	if report == nil {
		t.Fatal("nil metrics report")
	}
	if len(report.DeadRanks) != 0 {
		t.Errorf("healthy run reports dead ranks %v", report.DeadRanks)
	}
	seen := map[int]bool{}
	for _, s := range report.Ranks {
		seen[s.Rank] = true
	}
	for r := 0; r < 3; r++ {
		if !seen[r] {
			t.Errorf("rank %d snapshot missing from report", r)
		}
	}
	m := report.Merged
	if got := m.Counters["map.mapped"] + m.Counters["map.unmapped"]; got != int64(len(ds.Reads)) {
		t.Errorf("merged map.mapped+map.unmapped = %d, want %d", got, len(ds.Reads))
	}
	if m.Counters["map.mapped"] != st.Mapped {
		t.Errorf("merged map.mapped = %d, MapStats.Mapped = %d", m.Counters["map.mapped"], st.Mapped)
	}
	if m.Counters["phmm.cells"] == 0 {
		t.Error("merged phmm.cells is zero: alignment kernel not instrumented")
	}
	if m.Histograms["map.read.seconds"].Count == 0 {
		t.Error("merged map.read.seconds histogram is empty")
	}
	if m.Gauges["comm.packets.sent"] == 0 {
		t.Error("merged comm.packets.sent gauge is zero on a 3-rank run")
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReportJSON(buf.Bytes()); err != nil {
		t.Errorf("report JSON fails validation: %v", err)
	}
}

// TestRunClusterReportDegraded kills rank 2 mid read-split run and
// demands a COMPLETE merged metrics report anyway: survivor snapshots
// for ranks 0, 1, 3, the dead rank marked, and the merged mapping
// counters still covering every read exactly once (the coordinator
// reassigned the lost shard).
func TestRunClusterReportDegraded(t *testing.T) {
	ds := dataset(t)
	opts := Options{
		Engine: EngineConfig{Workers: 1},
		Cluster: ClusterConfig{
			OpTimeout: 300 * time.Millisecond,
			Heartbeat: 15 * time.Millisecond,
			Fault:     &FaultConfig{Seed: 9, CrashRank: 2},
		},
	}
	calls, st, report, err := RunClusterReport(4, Channels, ReadSplit,
		ds.Reference, SliceReadSource(ds.Reads), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded() {
		t.Fatal("run did not degrade: crash injection not effective")
	}
	if len(calls) == 0 {
		t.Error("degraded run produced no calls")
	}
	if report == nil {
		t.Fatal("nil metrics report")
	}
	if len(report.DeadRanks) != 1 || report.DeadRanks[0] != 2 {
		t.Errorf("DeadRanks = %v, want [2]", report.DeadRanks)
	}
	seen := map[int]bool{}
	for _, s := range report.Ranks {
		seen[s.Rank] = true
	}
	for _, r := range []int{0, 1, 3} {
		if !seen[r] {
			t.Errorf("survivor rank %d snapshot missing from report", r)
		}
	}
	if seen[2] {
		t.Error("dead rank 2 has a snapshot in the report")
	}
	m := report.Merged
	if got := m.Counters["map.mapped"] + m.Counters["map.unmapped"]; got != int64(len(ds.Reads)) {
		t.Errorf("merged survivors mapped %d reads, want %d (lost shard not reassigned?)", got, len(ds.Reads))
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReportJSON(buf.Bytes()); err != nil {
		t.Errorf("degraded report JSON fails validation: %v", err)
	}
	// The human summary must surface the loss.
	buf.Reset()
	if err := report.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DEAD ranks [2]") {
		t.Errorf("text summary does not flag the dead rank:\n%s", buf.String())
	}
}
