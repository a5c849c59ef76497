// Package cmd_test builds the shipping binaries and runs them
// end-to-end: readsim generates a dataset, gnumap-snp maps and calls
// it (single-process and simulated-cluster), and the outputs are
// checked against the truth table readsim wrote.
package cmd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gnumap"
)

// buildTools compiles the binaries once into a temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping binary integration test")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"gnumap/cmd/readsim", "gnumap/cmd/gnumap-snp")
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipelineEndToEnd(t *testing.T) {
	bins := buildTools(t)
	data := t.TempDir()

	// 1. Generate a small dataset.
	out := run(t, filepath.Join(bins, "readsim"),
		"-out", data, "-length", "60000", "-snps", "6", "-coverage", "10", "-seed", "3")
	if !strings.Contains(out, "truth:") {
		t.Fatalf("readsim output unexpected:\n%s", out)
	}
	truth := parseTruth(t, filepath.Join(data, "truth.tsv"))
	if len(truth) != 6 {
		t.Fatalf("truth has %d SNPs", len(truth))
	}

	// 2. Map and call, single process, with SAM and pileup side outputs.
	vcfPath := filepath.Join(data, "calls.vcf")
	samPath := filepath.Join(data, "out.sam")
	puPath := filepath.Join(data, "pileup.tsv")
	run(t, filepath.Join(bins, "gnumap-snp"),
		"-ref", filepath.Join(data, "reference.fa"),
		"-reads", filepath.Join(data, "reads.fq"),
		"-o", vcfPath, "-sam", samPath, "-pileup", puPath, "-workers", "2")

	calls := parseVCFPositions(t, vcfPath)
	tp := 0
	for pos := range truth {
		if calls[pos] {
			tp++
		}
	}
	if tp < 5 {
		t.Errorf("CLI recovered %d/6 SNPs; calls=%v truth=%v", tp, calls, truth)
	}
	if fi, err := os.Stat(samPath); err != nil || fi.Size() == 0 {
		t.Errorf("SAM output missing: %v", err)
	}
	if fi, err := os.Stat(puPath); err != nil || fi.Size() == 0 {
		t.Errorf("pileup output missing: %v", err)
	}

	// 3. Same run on a 3-node simulated cluster, genome-split: the VCF
	// must contain the same positions.
	vcf2 := filepath.Join(data, "calls_cluster.vcf")
	run(t, filepath.Join(bins, "gnumap-snp"),
		"-ref", filepath.Join(data, "reference.fa"),
		"-reads", filepath.Join(data, "reads.fq"),
		"-o", vcf2, "-nodes", "3", "-split", "genome")
	calls2 := parseVCFPositions(t, vcf2)
	if len(calls2) != len(calls) {
		t.Errorf("cluster run called %d positions, single-process %d", len(calls2), len(calls))
	}
	for pos := range calls {
		if !calls2[pos] {
			t.Errorf("cluster run missing call at %d", pos)
		}
	}

	// 4. The CLI's VCF is byte-identical to the library's: a one-worker
	// CLI run against an in-process pipeline with the same settings,
	// written through gnumap.WriteVCF.
	vcf1 := filepath.Join(data, "calls_w1.vcf")
	run(t, filepath.Join(bins, "gnumap-snp"),
		"-ref", filepath.Join(data, "reference.fa"),
		"-reads", filepath.Join(data, "reads.fq"),
		"-o", vcf1, "-workers", "1")
	cliVCF, err := os.ReadFile(vcf1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gnumap.LoadReference(filepath.Join(data, "reference.fa"))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := gnumap.LoadReads(filepath.Join(data, "reads.fq"), gnumap.Sanger)
	if err != nil {
		t.Fatal(err)
	}
	opts := gnumap.Options{}
	opts.Engine.Workers = 1
	opts.Caller.Alpha = 0.05
	p, err := gnumap.NewPipeline(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(reads); err != nil {
		t.Fatal(err)
	}
	libCalls, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	var libVCF bytes.Buffer
	if err := gnumap.WriteVCF(&libVCF, libCalls); err != nil {
		t.Fatal(err)
	}
	if len(libCalls) == 0 || !bytes.Equal(cliVCF, libVCF.Bytes()) {
		t.Errorf("CLI VCF (%d bytes) differs from the library's (%d bytes, %d calls)",
			len(cliVCF), libVCF.Len(), len(libCalls))
	}

	// -sam loads the FASTQ instead of streaming it; the loaded reads take
	// the same mapping path, so the VCF must not change by a byte.
	vcfSam := filepath.Join(data, "calls_w1_sam.vcf")
	run(t, filepath.Join(bins, "gnumap-snp"),
		"-ref", filepath.Join(data, "reference.fa"),
		"-reads", filepath.Join(data, "reads.fq"),
		"-o", vcfSam, "-workers", "1", "-sam", filepath.Join(data, "w1.sam"))
	samVCF, err := os.ReadFile(vcfSam)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(samVCF, cliVCF) {
		t.Errorf("-sam run VCF (%d bytes) differs from the streamed run's (%d bytes)",
			len(samVCF), len(cliVCF))
	}
}

// parseTruth reads readsim's truth TSV into a set of 0-based positions.
func parseTruth(t *testing.T, path string) map[int]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		pos, err := strconv.Atoi(f[0])
		if err != nil {
			t.Fatalf("bad truth line %q: %v", line, err)
		}
		out[pos] = true
	}
	return out
}

// parseVCFPositions reads 0-based positions out of a VCF.
func parseVCFPositions(t *testing.T, path string) map[int]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		pos, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("bad VCF line %q: %v", line, err)
		}
		out[pos-1] = true // VCF is 1-based
	}
	return out
}
