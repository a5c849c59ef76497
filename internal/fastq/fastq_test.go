package fastq

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadBasic(t *testing.T) {
	in := "@read1 extra metadata\nACGT\n+\nIIII\n"
	reads, err := ReadAll(strings.NewReader(in), Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 {
		t.Fatalf("got %d reads, want 1", len(reads))
	}
	r := reads[0]
	if r.Name != "read1" {
		t.Errorf("name = %q, want read1", r.Name)
	}
	if r.Seq.String() != "ACGT" {
		t.Errorf("seq = %q", r.Seq.String())
	}
	for i, q := range r.Qual {
		if q != 40 { // 'I' is 73; 73-33 = 40
			t.Errorf("qual[%d] = %d, want 40", i, q)
		}
	}
}

func TestReadMultipleAndPlusWithName(t *testing.T) {
	in := "@a\nAC\n+a\n!I\n@b\nGT\n+\nII\n"
	reads, err := ReadAll(strings.NewReader(in), Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 {
		t.Fatalf("got %d reads, want 2", len(reads))
	}
	if reads[0].Qual[0] != 0 || reads[0].Qual[1] != 40 {
		t.Errorf("quals = %v", reads[0].Qual)
	}
}

func TestIllumina13Encoding(t *testing.T) {
	// '@' is 64 -> Q0 in Phred+64; 'h' is 104 -> Q40.
	in := "@r\nAC\n+\n@h\n"
	reads, err := ReadAll(strings.NewReader(in), Illumina13)
	if err != nil {
		t.Fatal(err)
	}
	if reads[0].Qual[0] != 0 || reads[0].Qual[1] != 40 {
		t.Errorf("quals = %v, want [0 40]", reads[0].Qual)
	}
}

func TestQualityClamp(t *testing.T) {
	// '~' is 126 -> Q93 in Sanger, clamps to MaxQuality.
	reads, err := ReadAll(strings.NewReader("@r\nA\n+\n~\n"), Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if reads[0].Qual[0] != MaxQuality {
		t.Errorf("qual = %d, want %d", reads[0].Qual[0], MaxQuality)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"missing @", "read\nACGT\n+\nIIII\n"},
		{"truncated after header", "@r\n"},
		{"truncated after seq", "@r\nACGT\n"},
		{"truncated after plus", "@r\nACGT\n+\n"},
		{"bad separator", "@r\nACGT\nX\nIIII\n"},
		{"qual length mismatch", "@r\nACGT\n+\nII\n"},
		{"invalid base", "@r\nAC!T\n+\nIIII\n"},
		{"qual below offset", "@r\nA\n+\n \n"}, // space=32 < 33
	}
	for _, c := range cases {
		if _, err := ReadAll(strings.NewReader(c.in), Sanger); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEOFBehaviour(t *testing.T) {
	r := NewReader(strings.NewReader(""), Sanger)
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("empty: %v, want EOF", err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("repeat Next: %v, want EOF", err)
	}
}

func TestNoTrailingNewline(t *testing.T) {
	reads, err := ReadAll(strings.NewReader("@r\nAC\n+\nII"), Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 || reads[0].Qual[1] != 40 {
		t.Errorf("parse without trailing newline failed: %+v", reads)
	}
}

func TestErrorProb(t *testing.T) {
	cases := []struct {
		q    uint8
		want float64
	}{
		{0, 1.0}, {10, 0.1}, {20, 0.01}, {30, 0.001}, {40, 0.0001},
	}
	for _, c := range cases {
		if got := ErrorProb(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ErrorProb(%d) = %g, want %g", c.q, got, c.want)
		}
	}
}

// TestErrorProbTableBitExact: the lookup table returns exactly the
// math.Pow value for every possible quality byte.
func TestErrorProbTableBitExact(t *testing.T) {
	for q := 0; q < 256; q++ {
		want := math.Pow(10, -float64(q)/10)
		if got := ErrorProb(uint8(q)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ErrorProb(%d) = %v (%#x), want %v (%#x)", q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestPhredErrorProbRoundTrip(t *testing.T) {
	f := func(q uint8) bool {
		q = q % (MaxQuality + 1)
		return PhredFromErrorProb(ErrorProb(q)) == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if PhredFromErrorProb(0) != MaxQuality {
		t.Error("zero error probability must clamp to MaxQuality")
	}
	if PhredFromErrorProb(2.0) != 0 {
		t.Error("error probability > 1 must clamp to 0")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	orig := "@r1\nACGTN\n+\n!+5?I\n@r2\nTT\n+\nII\n"
	reads, err := ReadAll(strings.NewReader(orig), Sanger)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Sanger)
	for _, rd := range reads {
		if err := w.Write(rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != orig {
		t.Errorf("round trip:\n got %q\nwant %q", buf.String(), orig)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	w := NewWriter(io.Discard, Sanger)
	if err := w.Write(&Read{Name: "x"}); err == nil {
		t.Error("empty read must be rejected")
	}
	bad := &Read{Name: "x", Qual: []uint8{1}}
	bad.Seq = append(bad.Seq, 0, 1)
	if err := w.Write(bad); err == nil {
		t.Error("length mismatch must be rejected")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/reads.fq"
	reads, err := ReadAll(strings.NewReader("@a\nACGT\n+\nIIII\n"), Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, reads, Sanger); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Seq.String() != "ACGT" {
		t.Errorf("file round trip mismatch: %+v", back)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	path := t.TempDir() + "/reads.fq.gz"
	reads, err := ReadAll(strings.NewReader("@a\nACGT\n+\nIIII\n"), Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, reads, Sanger); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("output is not gzip")
	}
	back, err := ReadFile(path, Sanger)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Seq.String() != "ACGT" {
		t.Errorf("gzip round trip mismatch: %+v", back)
	}
}

// The parser must never panic, whatever bytes arrive.
func TestParserRobustnessProperty(t *testing.T) {
	f := func(raw []byte) bool {
		_, err := ReadAll(bytes.NewReader(raw), Sanger)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
