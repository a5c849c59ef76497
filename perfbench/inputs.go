package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"gnumap/internal/fasta"
	"gnumap/internal/fastq"
	"gnumap/internal/simulate"
	"gnumap/internal/snp"
)

// inputs are the generated files of one workload and seed: one
// reference and truth catalog, and several read sets drawn from it.
type inputs struct {
	Dir, Ref, Truth string
	Reads           []string
	// NumReads is the size of every read set (coverage fixes it).
	NumReads int64
	SHA256   map[string]string
}

// readSets is the number of sequencing runs simulated per invocation.
// Each timed run maps one of them in turn, and accuracy is pooled over
// all of them, so one invocation measures more than one draw of reads.
// Every invocation maps each of them at least once, which keeps pooled
// accuracy a function of the seed alone; three ~7 s runs fit the 30 s
// budget even when the host is slow.
const readSets = 3

// referenceSeed fixes each workload's reference genome and truth
// catalog. The benchmark seed draws the sequencing runs — which
// fragments are read and where the errors fall — so the spread between
// seeds reflects the program and the host rather than how much repeat
// content one random genome happens to have (five genome seeds moved
// diploid-2node's wall time from 5.3 s to 6.7 s).
const referenceSeed = 1

// generate simulates the workload's experiment — reference, truth
// catalog, mutated individual and its reads, through internal/simulate
// as readsim does — and writes reference.fa, truth.tsv and readSets
// FASTQ files into dir. Read set i is drawn with seed·readSets+i, so a
// seed always yields the same files. scale shrinks the genome for the
// self-tests; the benchmark runs at 1.
func generate(w workload, seed int64, scale float64, dir string) (inputs, error) {
	length := int(float64(w.GenomeLength) * scale)
	g, err := simulate.Genome(simulate.GenomeConfig{
		Length:                  length,
		GC:                      gcContent,
		TandemRepeatFraction:    w.Tandem,
		DispersedRepeatFraction: w.Disperse,
		Seed:                    referenceSeed,
	})
	if err != nil {
		return inputs{}, fmt.Errorf("simulate %s: %w", w.Name, err)
	}
	truth, err := simulate.Catalog(g, simulate.CatalogConfig{
		Count:       max(1, length/snpSpacing),
		HetFraction: w.HetFraction,
		Seed:        referenceSeed + 1,
	})
	if err != nil {
		return inputs{}, err
	}
	ind, err := simulate.Mutate(g, truth, w.HetFraction > 0)
	if err != nil {
		return inputs{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return inputs{}, err
	}
	in := inputs{
		Dir:    dir,
		Ref:    filepath.Join(dir, "reference.fa"),
		Truth:  filepath.Join(dir, "truth.tsv"),
		SHA256: map[string]string{},
	}
	if err := fasta.WriteFile(in.Ref, []*fasta.Record{{Name: "sim", Seq: g}}); err != nil {
		return inputs{}, err
	}
	if err := writeTruth(in.Truth, truth); err != nil {
		return inputs{}, err
	}
	for i := 0; i < readSets; i++ {
		reads, err := simulate.Reads(ind, simulate.ReadConfig{
			Length: readLength, Coverage: w.Coverage, Seed: seed*readSets + int64(i),
		})
		if err != nil {
			return inputs{}, err
		}
		path := filepath.Join(dir, fmt.Sprintf("reads%d.fq", i))
		if err := fastq.WriteFile(path, reads, fastq.Sanger); err != nil {
			return inputs{}, err
		}
		in.Reads = append(in.Reads, path)
		in.NumReads = int64(len(reads))
	}
	for _, p := range append([]string{in.Ref, in.Truth}, in.Reads...) {
		sum, err := fileSHA256(p)
		if err != nil {
			return inputs{}, err
		}
		in.SHA256[filepath.Base(p)] = sum
	}
	return in, nil
}

// generateInChild runs generate in a fresh process (see childEnv) and
// reads back what it wrote.
func generateInChild(w workload, seed int64, scale float64, dir string) (inputs, error) {
	err := runSelf("generate", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-dir", dir)
	if err != nil {
		return inputs{}, err
	}
	var in inputs
	data, err := os.ReadFile(filepath.Join(dir, "inputs.json"))
	if err == nil {
		err = json.Unmarshal(data, &in)
	}
	return in, err
}

// generateMain is the generating process: it writes the inputs and
// their description, inputs.json, into -dir.
func generateMain(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input generation seed")
	scale := fs.Float64("scale", 1, "genome-length scale")
	dir := fs.String("dir", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	in, err := generate(w, *seed, *scale, *dir)
	if err != nil {
		return err
	}
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*dir, "inputs.json"), data, 0o644)
}

// writeTruth writes the catalog in readsim's "pos ref alt het" layout.
func writeTruth(path string, truth []simulate.SNP) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "#pos\tref\talt\thet")
	for _, s := range truth {
		fmt.Fprintf(bw, "%d\t%s\t%s\t%v\n", s.Pos, s.Ref, s.Alt, s.Het)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// host is the stamp every result carries: what was built, where it
// ran, which kernels dispatched, and on which inputs.
type host struct {
	GitRev          string            `json:"git_rev"`
	SourceSHA256    string            `json:"source_sha256"`
	NumCPU          int               `json:"num_cpu"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	GoVersion       string            `json:"go_version"`
	CPUModel        string            `json:"cpu_model"`
	PhmmBatchISA    string            `json:"phmm_batch_isa"`
	SNPVectorKernel string            `json:"snp_vector_kernel"`
	Workload        string            `json:"workload"`
	Seed            int64             `json:"seed"`
	Scale           float64           `json:"scale"`
	Reads           int64             `json:"reads"`
	InputSHA256     map[string]string `json:"input_sha256"`
}

// childGOMAXPROCS is the GOMAXPROCS the pipeline processes will run
// with: the inherited environment value if set, else NumCPU.
func childGOMAXPROCS() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return runtime.NumCPU()
}

// checkHost refuses a workload the host cannot run without
// timesharing: more busy workers than CPUs, or fewer Go procs than
// workers, would record contention as if it were the program's speed.
func checkHost(w workload) error {
	if n := runtime.NumCPU(); w.cores() > n {
		return fmt.Errorf("workload %s keeps %d workers × %d ranks busy, but the host has %d CPUs", w.Name, w.Workers, w.Nodes, n)
	}
	if g := childGOMAXPROCS(); g < w.cores() {
		return fmt.Errorf("workload %s needs GOMAXPROCS >= %d, have %d", w.Name, w.cores(), g)
	}
	return nil
}

func stampHost(w workload, seed int64, scale float64, in inputs, root string) (host, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return host{}, err
	}
	return host{
		GitRev:          gitRev(),
		SourceSHA256:    src,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      childGOMAXPROCS(),
		GoVersion:       runtime.Version(),
		CPUModel:        cpuInfo("model name"),
		PhmmBatchISA:    phmmBatchISA(),
		SNPVectorKernel: snp.VectorKernel(),
		Workload:        w.Name,
		Seed:            seed,
		Scale:           scale,
		Reads:           in.NumReads,
		InputSHA256:     in.SHA256,
	}, nil
}

// gitRev is the VCS revision stamped into this binary by the Go
// toolchain, or "unknown" when it was built outside a git work tree.
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes every Go source, assembly and module file under
// root (skipping hidden and build directories), so results from
// checkouts without git history still name the code they measured.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".go", ".s", ".mod", ".sum":
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		sum, err := fileSHA256(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %s\n", rel, sum)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuInfo returns the first value of key in /proc/cpuinfo.
func cpuInfo(key string) string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// phmmBatchISA names the batched Pair-HMM kernel internal/phmm
// dispatches: its assembly sweep runs when the CPU reports AVX2 and
// the OS saves YMM state (both show in the kernel's cpuinfo flags),
// the portable Go sweep otherwise.
func phmmBatchISA() string {
	if runtime.GOARCH != "amd64" {
		return "generic"
	}
	flags := strings.Fields(cpuInfo("flags"))
	for _, f := range flags {
		if f == "avx2" {
			return "avx2"
		}
	}
	return "generic"
}
