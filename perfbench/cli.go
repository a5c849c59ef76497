package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds any single pipeline process so a hung run fails
// the benchmark instead of outliving it.
const childTimeout = 150 * time.Second

// cliRun is one untraced run of the real gnumap-snp binary.
type cliRun struct {
	Wall, Setup, CPU float64 // seconds
	RSSMB            float64
	Mapped, Total    int64
}

var mappedLine = regexp.MustCompile(`mapped (\d+)/(\d+) reads`)

// runCLI runs gnumap-snp on the workload's inputs in a fresh process,
// writing the VCF to vcfPath (and, when metricsPath is set, the
// metrics report with the registry on). Wall time runs from just
// before the process is started until it has exited, after closing the
// VCF. Set-up ends when the process first reads the FASTQ: the CLI
// opens the reads only once the reference is parsed, the seed index is
// built and the accumulator is allocated — or, for a cluster, opens
// them up front and first reads them once rank 0 is ready to deal.
func runCLI(bin string, w workload, ref, reads, vcfPath, metricsPath string) (cliRun, error) {
	args := append(w.cliArgs(), "-ref", ref, "-reads", reads, "-o", vcfPath)
	if metricsPath != "" {
		args = append(args, "-metrics-out", metricsPath)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	// A pipeline must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// /proc names open files by their absolute, symlink-free path.
	readsAbs, err := filepath.Abs(reads)
	if err == nil {
		readsAbs, err = filepath.EvalSymlinks(readsAbs)
	}
	if err != nil {
		return cliRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cliRun{}, err
	}
	stop := make(chan struct{})
	setupCh := make(chan float64, 1)
	go func() { setupCh <- watchFirstRead(cmd.Process.Pid, readsAbs, start, stop) }()
	werr := cmd.Wait()
	wall := time.Since(start).Seconds()
	close(stop)
	setup := <-setupCh
	if werr != nil {
		return cliRun{}, fmt.Errorf("gnumap-snp %s: %v\n%s", strings.Join(args, " "), werr, tail(stderr.String(), 2000))
	}
	if setup <= 0 {
		return cliRun{}, fmt.Errorf("gnumap-snp exited before its first FASTQ read was observed")
	}
	r := cliRun{
		Wall:  wall,
		Setup: setup,
		CPU:   (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.RSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	m := mappedLine.FindStringSubmatch(stderr.String())
	if m == nil {
		return cliRun{}, fmt.Errorf("gnumap-snp printed no mapping summary:\n%s", tail(stderr.String(), 2000))
	}
	r.Mapped, _ = strconv.ParseInt(m[1], 10, 64)
	r.Total, _ = strconv.ParseInt(m[2], 10, 64)
	return r, nil
}

// watchFirstRead polls /proc/<pid>/fdinfo until the descriptor open on
// target has a non-zero offset — the FASTQ reader's first buffer fill —
// and returns the seconds since start, or -1 if stop closes first. The
// CLI carries no instrumentation for this; the kernel's file offset is
// observed from outside at ~1 ms resolution.
func watchFirstRead(pid int, target string, start time.Time, stop <-chan struct{}) float64 {
	fdDir := fmt.Sprintf("/proc/%d/fd", pid)
	fd := ""
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if fd == "" {
			fd = findFD(fdDir, target)
		}
		if fd != "" && fdOffset(pid, fd) > 0 {
			return time.Since(start).Seconds()
		}
		select {
		case <-stop:
			return -1
		case <-tick.C:
		}
	}
}

func findFD(fdDir, target string) string {
	ents, err := os.ReadDir(fdDir)
	if err != nil {
		return ""
	}
	for _, e := range ents {
		if link, err := os.Readlink(filepath.Join(fdDir, e.Name())); err == nil && link == target {
			return e.Name()
		}
	}
	return ""
}

func fdOffset(pid int, fd string) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/fdinfo/%s", pid, fd))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "pos:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}

// score is a VCF scored against the truth catalog.
type score struct {
	TP, FP, FN int
	// CallSet is the SHA-256 of the (CHROM, POS, REF, ALT) rows in file
	// order: two runs called the same sites iff their digests match.
	CallSet string
}

func (s score) precision() float64 { return ratio(float64(s.TP), float64(s.TP+s.FP)) }
func (s score) recall() float64    { return ratio(float64(s.TP), float64(s.TP+s.FN)) }

// loadTruth reads truth.tsv into position → alternate base.
func loadTruth(path string) (map[int]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	truth := map[int]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) < 3 {
			return nil, fmt.Errorf("%s: short line %q", path, line)
		}
		pos, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		truth[pos] = f[2]
	}
	return truth, nil
}

// scoreVCF parses a gnumap-snp VCF and scores it with snp.Evaluate's
// rule: a call is a true positive when its position is in the catalog
// and its alternate allele (the first ALT) is the planted one. The
// simulated reference is one contig, so POS-1 is the global position.
func scoreVCF(path string, truth map[int]string) (score, error) {
	f, err := os.Open(path)
	if err != nil {
		return score{}, err
	}
	defer f.Close()
	var s score
	h := sha256.New()
	matched := map[int]bool{}
	header := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#CHROM") {
			header = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !header {
			return score{}, fmt.Errorf("%s: record before the #CHROM header", path)
		}
		fs := strings.Split(line, "\t")
		if len(fs) < 8 {
			return score{}, fmt.Errorf("%s: %d columns in %q", path, len(fs), line)
		}
		pos, err := strconv.Atoi(fs[1])
		if err != nil || pos < 1 {
			return score{}, fmt.Errorf("%s: bad POS in %q", path, line)
		}
		ref, alt := fs[3], fs[4]
		if len(ref) != 1 || !strings.Contains("ACGTN", ref) || alt == "" {
			return score{}, fmt.Errorf("%s: bad REF/ALT in %q", path, line)
		}
		fmt.Fprintf(h, "%s\t%d\t%s\t%s\n", fs[0], pos, ref, alt)
		first, _, _ := strings.Cut(alt, ",")
		if want, ok := truth[pos-1]; ok && want == first {
			if !matched[pos-1] {
				matched[pos-1] = true
				s.TP++
			}
			continue
		}
		s.FP++
	}
	if err := sc.Err(); err != nil {
		return score{}, err
	}
	if !header {
		return score{}, fmt.Errorf("%s: no #CHROM header", path)
	}
	s.FN = len(truth) - s.TP
	s.CallSet = hex.EncodeToString(h.Sum(nil))
	return s, nil
}
