package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The tables below
// are the benchmark's contract; BENCHMARK.json lists the same names and
// units, and the self-tests check that the two agree.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of gnumap-snp sees, measured on untraced runs
// of the real CLI (each a fresh process, metrics registry off) and
// reported as the median over the runs of one benchmark invocation.
var endToEnd = []metricDef{
	{"wall_s", "s"},            // process start until the VCF is closed and the process exits
	{"setup_s", "s"},           // process start until the pipeline first reads the FASTQ
	{"reads_per_s", "reads/s"}, // input reads / (wall_s - setup_s)
	{"cpu_s_per_kread", "s"},   // user+system CPU seconds per 1,000 reads
	{"peak_rss_mb", "MB"},      // peak resident set size of the process
	{"precision", "ratio"},     // TP / (TP + FP), snp.Evaluate's rule
	{"recall", "ratio"},        // TP / (TP + FN)
	{"mapped_frac", "ratio"},   // mapped reads / input reads
}

// perLayer is charged by the traced run (see trace.go), the serial
// replay (replay.go), and the metrics-on CLI runs (cluster.*, obs.*).
var perLayer = []metricDef{
	{"fasta.load_s", "s"},
	{"kmer.index_build_s", "s"},
	{"kmer.index_bytes", "bytes"},
	{"fastq.next_ns_per_read", "ns/read"},
	{"pwm.build_ns_per_read", "ns/read"},
	{"kmer.seed_ns_per_read", "ns/read"},
	{"kmer.seed_hits_per_read", "count/read"},
	{"kmer.masked_per_read", "count/read"},
	{"kmer.candidates_per_read", "count/read"},
	{"kmer.candidate_yield", "ratio"},
	{"phmm.align_ns_per_read", "ns/read"},
	{"phmm.alignments_per_read", "count/read"},
	{"phmm.cells_per_read", "count/read"},
	{"phmm.ns_per_cell", "ns/cell"},
	{"phmm.batch_lane_fill", "lanes"},
	{"phmm.scalar_frac", "ratio"},
	{"phmm.accept_frac", "ratio"},
	{"phmm.contrib_ns_per_read", "ns/read"},
	{"genome.add_ns_per_read", "ns/read"},
	{"genome.locations_per_read", "count/read"},
	{"genome.combine_s", "s"},
	{"genome.accum_bytes", "bytes"},
	{"core.map_s", "s"},
	{"core.reads_per_s_map", "reads/s"},
	{"snp.call_s", "s"},
	{"snp.sweep_ns_per_pos", "ns/pos"},
	{"snp.tested_positions", "count"},
	{"snp.prescreen_skip_frac", "ratio"},
	{"snp.write_s", "s"},
	{"snp.vcf_bytes", "bytes"},
	{"cluster.reduce_s", "s"},
	{"cluster.bytes_sent", "bytes"},
	{"cluster.msgs_sent", "count"},
	{"cluster.recv_wait_s", "s"},
	{"obs.metrics_overhead_frac", "ratio"},
	{"trace.coverage_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.replay_count_drift", "ratio"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object for defs from vals, failing on a
// missing or non-finite value so no metric is ever silently dropped.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
