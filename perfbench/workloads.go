package main

import (
	"strconv"
	"strings"

	"gnumap/internal/genome"
)

// workload is one closed batch job: a seeded simulated experiment and
// the gnumap-snp configuration that maps it. Every workload yields the
// same number of reads (GenomeLength·Coverage/ReadLength = 96,774 at
// scale 1), so reads/sec compares across them. NOTES.md records why
// each one was chosen and which layers it bypasses.
type workload struct {
	Name string
	// Simulation (the readsim / internal/simulate model).
	GenomeLength     int
	Tandem, Disperse float64
	HetFraction      float64
	Coverage         float64
	// Pipeline configuration, passed to gnumap-snp as flags and
	// mirrored by the traced run.
	Workers int
	Nodes   int
	Diploid bool
	Memory  genome.Mode
	// Output-check floors on accuracy against the truth catalog. They
	// sit well below every read set measured over 150 runs (repeat-2mb
	// recall 0.46–0.58, diploid-2node precision 0.16–0.22), so they
	// catch a broken caller, not sampling noise.
	MinPrecision, MinRecall float64
}

const (
	readLength = 62
	gcContent  = 0.41
	// snpSpacing is the paper's SNP density: 14,501 dbSNP sites on
	// 153 Mbp of chrX, one per ~10.5 kbp (readsim's default).
	snpSpacing = 10500
)

var workloads = []workload{
	// Seeding dominates (~1,000 index hits per read) and two workers
	// share the sharded accumulator.
	{
		Name:         "repeat-2mb",
		GenomeLength: 2_000_000, Tandem: 0.02, Disperse: 0.05, Coverage: 3,
		Workers: 2, Nodes: 1, Memory: genome.Norm,
		MinPrecision: 0.9, MinRecall: 0.35,
	},
	// Repeat-free, one worker: seeding is cheap, so PWM, PHMM and
	// contributions take the largest share.
	{
		Name:         "clean-150kb-1w",
		GenomeLength: 150_000, Coverage: 40,
		Workers: 1, Nodes: 1, Memory: genome.Norm,
		MinPrecision: 0.9, MinRecall: 0.8,
	},
	// Two read-split ranks with CHARDISC memory and the scalar diploid
	// LRT sweep.
	{
		Name:         "diploid-2node",
		GenomeLength: 1_000_000, Tandem: 0.02, Disperse: 0.05, HetFraction: 0.5, Coverage: 6,
		Workers: 1, Nodes: 2, Diploid: true, Memory: genome.CharDisc,
		MinPrecision: 0.08, MinRecall: 0.5,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cores is the number of CPUs the workload keeps busy: workers on each
// of the ranks.
func (w workload) cores() int { return w.Workers * w.Nodes }

// cliArgs is the gnumap-snp command line for this workload, minus the
// file arguments. Everything not named here stays at the CLI default:
// k=10, streaming, -phmm-batch 8, vectorized calling where eligible.
func (w workload) cliArgs() []string {
	args := []string{"-workers", strconv.Itoa(w.Workers), "-memory", strings.ToLower(w.Memory.String())}
	if w.Diploid {
		args = append(args, "-diploid")
	}
	if w.Nodes > 1 {
		args = append(args, "-nodes", strconv.Itoa(w.Nodes), "-split", "read")
	}
	return args
}
