// Command cfdbench runs the spectral-correlation estimator benchmarks on
// the paper geometry (K=256, M=64 by default) and writes the results as a
// JSON artifact (BENCH_<n>.json), so the performance trajectory of the
// estimators is tracked alongside the code from PR 2 onward.
//
// Reported per estimator: wall-clock ns/op, bytes/op and allocs/op, plus
// the modeled complex-multiplication counts from scf.Stats. The mult
// counts are the paper's canonical operation model (e.g. FAM is charged a
// full P-point second FFT per cell even though the implementation
// evaluates only its bin 0); wall-clock is what the machine actually did —
// keeping both visible is the point of the artifact.
//
// Since PR 3 the artifact also carries a streaming-throughput scenario:
// the multi-channel engine (internal/stream) is fed -stream-channels
// concurrent channels in backpressure mode and the sustained samples/sec
// and surfaces/sec per estimator are recorded (schema 2). -stream-samples
// sets the per-channel feed; -stream-channels 0 skips the scenario.
// Estimators without an incremental form (the Q15 backends) are skipped
// there.
//
// Since PR 4 (schema 3) the estimator set includes the Q15 fixed-point
// backends (fam-q15, ssca-q15), batch rows carry their modeled Montium
// cycle costs, and a fixed-point scenario compares each Q15 backend
// against its float reference on the same band: surface SQNR, feature-
// peak bias, saturation and block exponent (internal/quant).
//
// Since PR 5 (schema 4) the artifact carries a multi-tile mapping
// scenario: the -map-estimator pipeline is scheduled onto modeled tile
// fabrics (tiledcfd.MapEstimate) for every -map-strategies ×
// -map-tiles combination, recording predicted latency, sustained
// throughput, speedup vs the single-tile baseline, NoC traffic and
// memory feasibility — and, per tile count, the streaming engine is fed
// that many concurrent channels in backpressure mode so the modeled
// fabric figures sit next to a measured host sustained rate.
// -map-tiles "" skips the scenario.
//
// Since PR 6 (schema 5) the artifact carries a wire-protocol ingestion
// scenario: a multi-shard server (internal/shard behind internal/wire)
// listens on loopback and -wire-channels client connections stream the
// band at it with TCP backpressure as the only pacing, so the recorded
// aggregate samples/sec is the sharded service's saturation throughput
// end to end (framing, decode, routing, estimator, decision). Rows are
// the cross product of -wire-shards and -wire-procs (GOMAXPROCS is
// switched in-process per row, so one artifact carries the 1-vs-N core
// scaling pair), and every streaming row now records GOMAXPROCS and the
// engine worker count explicitly. -wire-channels 0 skips the scenario.
//
// Since PR 7 (schema 6) the artifact carries a degraded-mode scenario:
// the router drives -degraded-shards remote shard workers (in-process,
// wire protocol over loopback) with the robustness layer around each —
// per-push deadlines, retries, circuit breakers, heartbeat failover —
// and halfway through the feed one worker is blackholed (internal/chaos:
// its connections stop moving bytes but stay open, the worst failure
// mode). Recorded: the sustained aggregate samples/sec across the fault,
// failovers, retries, shed samples and open circuits, so the cost of a
// dead tile-fabric link is a tracked number. -degraded-channels 0 skips
// the scenario.
//
// Since PR 8 (schema 7) the batch scenario additionally runs a
// GOMAXPROCS sweep (-batch-procs, rows "name@pN" with the setting
// recorded on every row), and the artifact carries an alpha-pruning
// scenario: each -pruned-estimators estimator runs the same band
// full-plane and pruned to the -pruned-alpha candidate set, first
// checking every pruned strip bit-identical against the full plane,
// then timing (a) one batch op — Estimate of the whole band — and (b)
// one serving op — Reset + Push + Snapshot + CFAR decision + feature
// scan through the streaming accumulator, the engine's per-window
// decision loop — for every -pruned-windows window length. Serve
// speedup grows as windows shrink (the decision side is pruned at the
// full cell ratio while the shared per-block FFT floor stays), so each
// row records its window_samples and the sweep shows the trend.
// -pruned-fail-below gates the run on the best serve speedup across
// rows, the pruning counterpart of -fail-below (and needs no baseline
// file: full vs pruned run in the same process).
//
// Since PR 9 (schema 8) the artifact carries a detection scenario: the
// ROC sweep of the asymptotic statistical detectors (internal/quant
// RunROC) — estimator × detector × modulation × SNR, each curve traced
// across target-Pfa operating points with measured Pd and Pfa per
// point. The headline check is Pfa accuracy: the asymptotic tests
// (Dandawate–Giannakis "dg", multi-sequence "urriza") derive their
// thresholds in closed form from the target false-alarm probability
// with no Monte-Carlo calibration, so every point's measured Pfa must
// sit inside the binomial confidence interval around its target
// (-roc-conf, default 0.99 for flake headroom). -roc-gate makes a
// failed check exit non-zero; -roc-out additionally writes the ROC
// report as its own artifact for plotting; -roc-trials 0 skips the
// scenario.
//
// Since PR 10 (schema 9) the artifact carries a Q15-kernel scenario:
// the fixed-point estimators run under the scalar reference kernels and
// under the SWAR kernels (internal/fixed), interleaved round-robin in
// one process with per-variant medians (absolute ns/op on a shared
// runner is noisy; medians of interleaved rounds are stable), after a
// bit-exactness check that both kernel implementations produce the
// identical QSurface. Each row records the scalar-vs-SWAR kernel
// speedup and the fixed-vs-float wall-clock ratio against the float
// reference estimator, per -q15-procs GOMAXPROCS setting.
// -q15-fail-below gates the run on fam-q15's float/fixed ratio (e.g.
// 0.5 = fail when fam-q15 costs more than 2x float fam); -q15-rounds 0
// skips the scenario.
//
// With -baseline, a previously written report is embedded and per-
// estimator speedups (baseline ns / current ns) are computed, turning one
// file into a before/after comparison:
//
//	go run ./cmd/cfdbench -baseline BENCH_1.json -out BENCH_2.json
//
// -fail-below makes the run exit non-zero when any batch estimator's
// speedup vs the baseline falls below the given ratio — the CI bench-
// regression gate (baseline = HEAD~1 on the same runner, 0.8 = fail on
// >25% slowdown).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/cmplx"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiledcfd"
	"tiledcfd/internal/chaos"
	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/quant"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/shard"
	"tiledcfd/internal/stream"
	"tiledcfd/internal/wire"
)

// Measurement is one estimator's benchmark row. Since schema 7 the
// batch scenario also runs a GOMAXPROCS sweep: the plain row keeps the
// process default (so same-runner baseline ratios stay comparable), and
// "name@pN" rows pin GOMAXPROCS to N — every row records the setting.
type Measurement struct {
	Name           string  `json:"name"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NsPerOp        float64 `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	Iterations     int     `json:"iterations"`
	FFTMults       int     `json:"fft_mults"`
	PointwiseMults int     `json:"pointwise_mults"`
	TotalMults     int     `json:"total_mults"`
	SmoothingLen   int     `json:"smoothing_len"`
	// ModelCycles is the modeled Montium cycle cost (fixed backends only).
	ModelCycles int64 `json:"model_cycles,omitempty"`
}

// PrunedMeasurement is one estimator's row of the schema-7 alpha-pruning
// scenario: the same band estimated full-plane and pruned to a small
// candidate set, with the pruned cells checked bit-identical against the
// full plane. Two ops are timed end to end:
//
//   - batch: Estimate + CFAR decision + feature extraction, the one-shot
//     directed-sensing path (cfdsim -alpha).
//   - serve: one serving window exactly as stream.Engine runs it per
//     decision — accumulator Push of the window, surface Snapshot, CFAR
//     decision, feature extraction, Reset. This is where the sparse
//     snapshot pays alongside the pruned estimation, so it is the
//     headline (and gated) number.
type PrunedMeasurement struct {
	Name string `json:"name"`
	// Candidates is the non-negative bin-offset set (mirrors and a=0
	// implied).
	Candidates []int `json:"candidates"`
	// RowsComputed / RowsFull are the surface alpha rows held after
	// pruning vs the full grid extent.
	RowsComputed int `json:"rows_computed"`
	RowsFull     int `json:"rows_full"`
	// FullNsPerOp and PrunedNsPerOp time one batch op (Estimate + CFAR
	// + feature extraction).
	FullNsPerOp   float64 `json:"full_ns_per_op"`
	PrunedNsPerOp float64 `json:"pruned_ns_per_op"`
	// Speedup is FullNsPerOp / PrunedNsPerOp — the batch-latency
	// reduction directed sensing buys.
	Speedup float64 `json:"speedup"`
	// WindowSamples is the serving-window size of this row's serve
	// numbers (the -pruned-windows sweep; batch numbers are identical
	// across an estimator's rows). The speedup grows as windows shrink,
	// because the decision-side costs — snapshot, CFAR profile, feature
	// scan, all pruned at the full cell ratio — dominate the shared
	// per-block FFT floor.
	WindowSamples int `json:"window_samples,omitempty"`
	// ServeFullNsPerOp and ServePrunedNsPerOp time one serving window
	// (Push + Snapshot + CFAR + feature extraction + Reset). Zero when
	// the window is too short for this estimator's first snapshot.
	ServeFullNsPerOp   float64 `json:"serve_full_ns_per_op,omitempty"`
	ServePrunedNsPerOp float64 `json:"serve_pruned_ns_per_op,omitempty"`
	// ServeSpeedup is the serving-window latency reduction — the
	// -pruned-fail-below gate takes the best across rows.
	ServeSpeedup float64 `json:"serve_speedup,omitempty"`
	// MaxAbsDiff is the largest |full - pruned| over the candidate
	// strips; bit-identity means exactly 0.
	MaxAbsDiff float64 `json:"max_abs_diff"`
	// PrunedCellsSkipped counts grid cells one pruned Estimate never
	// computed.
	PrunedCellsSkipped int64 `json:"pruned_cells_skipped"`
	GOMAXPROCS         int   `json:"gomaxprocs"`
}

// Q15KernelMeasurement is one fixed-point estimator's row of the
// schema-9 Q15-kernel scenario: the same full estimate timed under the
// scalar reference kernels and under the SWAR kernels, plus the float
// reference estimator, all interleaved round-robin in one process and
// reduced to per-variant medians. KernelSpeedup is what the SWAR
// datapath buys over the scalar one; FixedOverFloat is the headline
// cost of running the estimate in 16-bit words at all (the
// -q15-fail-below gate reads its inverse).
type Q15KernelMeasurement struct {
	Name       string `json:"name"`
	Reference  string `json:"reference"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Rounds     int    `json:"rounds"`
	// Samples is the scenario's own steady-state workload length; the
	// Q15 pipelines carry per-snapshot setup (quantisation, plan and
	// root-table lookup) that the kernel ratio should amortise, so the
	// scenario measures q15KernelBlocks blocks of K rather than the
	// top-level -blocks band.
	Samples int `json:"samples"`
	// BitExact records the scenario's precondition check: the scalar and
	// SWAR kernels produced the identical QSurface (words, exponent,
	// gain) on the benchmark band. The run fails outright when false.
	BitExact bool `json:"bit_exact"`
	// Medians of the interleaved rounds, ns per full Estimate.
	ScalarNsPerOp float64 `json:"scalar_ns_per_op"`
	SWARNsPerOp   float64 `json:"swar_ns_per_op"`
	FloatNsPerOp  float64 `json:"float_ns_per_op"`
	// KernelSpeedup = scalar / SWAR (>1 means SWAR is faster).
	KernelSpeedup float64 `json:"kernel_speedup"`
	// FixedOverFloat = SWAR Q15 / float reference (1.0 = parity).
	FixedOverFloat float64 `json:"fixed_over_float"`
}

// FixedPointMeasurement is one Q15 backend's accuracy row against its
// float reference on the benchmark band (the schema-3 fixed-point
// scenario).
type FixedPointMeasurement struct {
	Name           string  `json:"name"`
	Reference      string  `json:"reference"`
	SQNRdB         float64 `json:"sqnr_db"`
	PeakBias       float64 `json:"peak_bias"`
	SaturatedCells int     `json:"saturated_cells"`
	Exp            int     `json:"exp"`
	ModelCycles    int64   `json:"model_cycles"`
}

// StreamingMeasurement is one estimator's multi-channel streaming
// throughput row: the engine fed in backpressure mode (nothing dropped),
// so the rates are what the worker pool sustains end to end —
// ring drain, incremental estimator state, snapshot, CFAR decision.
type StreamingMeasurement struct {
	Name              string  `json:"name"`
	Channels          int     `json:"channels"`
	SamplesPerChannel int     `json:"samples_per_channel"`
	SnapshotSamples   int     `json:"snapshot_samples"`
	Workers           int     `json:"workers"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	WallSeconds       float64 `json:"wall_seconds"`
	SamplesPerSec     float64 `json:"samples_per_sec"`
	SurfacesPerSec    float64 `json:"surfaces_per_sec"`
	Surfaces          int64   `json:"surfaces"`
}

// WireMeasurement is one row of the schema-5 wire-protocol ingestion
// scenario: the sharded service saturated over loopback TCP, so the
// aggregate samples/sec covers framing, decode, shard routing, the
// estimators and the decisions end to end.
type WireMeasurement struct {
	Name              string  `json:"name"`
	Shards            int     `json:"shards"`
	Channels          int     `json:"channels"`
	Connections       int     `json:"connections"`
	SamplesPerChannel int     `json:"samples_per_channel"`
	SnapshotSamples   int     `json:"snapshot_samples"`
	WorkersPerShard   int     `json:"workers_per_shard"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	WallSeconds       float64 `json:"wall_seconds"`
	SamplesPerSec     float64 `json:"samples_per_sec"`
	Surfaces          int64   `json:"surfaces"`
}

// DegradedMeasurement is the schema-6 degraded-mode scenario: the
// robustness layer exercised under a mid-run blackhole of one remote
// shard worker, recording what the service sustains across the fault
// and what the fault cost (failovers, retries, shed samples).
type DegradedMeasurement struct {
	Name              string  `json:"name"`
	Shards            int     `json:"shards"`
	Channels          int     `json:"channels"`
	SamplesPerChannel int     `json:"samples_per_channel"`
	SnapshotSamples   int     `json:"snapshot_samples"`
	HealthIntervalMs  float64 `json:"health_interval_ms"`
	WallSeconds       float64 `json:"wall_seconds"`
	SamplesPerSec     float64 `json:"samples_per_sec"`
	// SamplesAttempted is the full feed; SamplesAccepted what the shard
	// engines processed. The difference beyond SamplesShed is data the
	// blackholed worker's socket acknowledged but never processed —
	// carried per channel by the router's counter-carry, and the
	// honest cost of the worst failure mode.
	SamplesAttempted int64 `json:"samples_attempted"`
	SamplesAccepted  int64 `json:"samples_accepted"`
	SamplesShed      int64 `json:"samples_shed"`
	Retries          int64 `json:"retries"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Failovers        int64 `json:"failovers"`
	Surfaces         int64 `json:"surfaces"`
	OpenCircuits     int   `json:"open_circuits"`
}

// MappingMeasurement is one (strategy, tiles) row of the schema-4
// multi-tile mapping scenario: the modeled fabric schedule's predicted
// figures for one estimator window.
type MappingMeasurement struct {
	Strategy           string  `json:"strategy"`
	Tiles              int     `json:"tiles"`
	WindowSamples      int     `json:"window_samples"`
	LatencyMicros      float64 `json:"latency_us"`
	ModelSamplesPerSec float64 `json:"model_samples_per_sec"`
	SpeedupVsSingle    float64 `json:"speedup_vs_single"`
	NoCWords           int64   `json:"noc_words"`
	MemFeasible        bool    `json:"mem_feasible"`
}

// MappingScenario bundles the schema-4 mapping rows with the measured
// host streaming runs that accompany them (channels = tiles through the
// backpressured engine).
type MappingScenario struct {
	Estimator string                 `json:"estimator"`
	Rows      []MappingMeasurement   `json:"rows"`
	Host      []StreamingMeasurement `json:"host,omitempty"`
}

// Report is the BENCH_<n>.json schema.
type Report struct {
	Schema     int                     `json:"schema"`
	Timestamp  string                  `json:"timestamp"`
	GoVersion  string                  `json:"go_version"`
	GOOS       string                  `json:"goos"`
	GOARCH     string                  `json:"goarch"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Geometry   Geometry                `json:"geometry"`
	Note       string                  `json:"note"`
	Results    []Measurement           `json:"results"`
	Detection  *DetectionScenario      `json:"detection,omitempty"`
	Pruned     []PrunedMeasurement     `json:"pruned,omitempty"`
	Q15Kernel  []Q15KernelMeasurement  `json:"q15_kernel,omitempty"`
	FixedPoint []FixedPointMeasurement `json:"fixed_point,omitempty"`
	Streaming  []StreamingMeasurement  `json:"streaming,omitempty"`
	Wire       []WireMeasurement       `json:"wire,omitempty"`
	Degraded   *DegradedMeasurement    `json:"degraded,omitempty"`
	Mapping    *MappingScenario        `json:"mapping,omitempty"`
	Baseline   *Report                 `json:"baseline,omitempty"`
	Speedup    map[string]float64      `json:"speedup_vs_baseline,omitempty"`
}

// DetectionScenario is the schema-8 detector ROC sweep: the full
// quant.RunROC report plus the Pfa-accuracy summary the gate reads —
// the worst |measured − target| Pfa error across asymptotic operating
// points and the list of points outside their confidence interval.
type DetectionScenario struct {
	quant.ROCReport
	WorstPfaErr float64  `json:"worst_pfa_err"`
	PfaFailures []string `json:"pfa_failures,omitempty"`
}

// Geometry records the benchmark's estimator configuration.
type Geometry struct {
	K       int    `json:"k"`
	M       int    `json:"m"`
	Blocks  int    `json:"blocks"`
	Samples int    `json:"samples"`
	Signal  string `json:"signal"`
	Seed    uint64 `json:"seed"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH.json", "output JSON path")
		k          = flag.Int("k", 256, "FFT / channelizer size (power of two)")
		m          = flag.Int("m", 64, "surface half-extent")
		blocks     = flag.Int("blocks", 8, "integration blocks of K samples")
		seed       = flag.Uint64("seed", 42, "BPSK band seed")
		names      = flag.String("estimators", "direct,fam,ssca,fam-q15,ssca-q15", "comma-separated estimator subset")
		baseline   = flag.String("baseline", "", "previous BENCH json to embed for before/after speedups")
		failBelow  = flag.Float64("fail-below", 0, "with -baseline: exit non-zero if any batch speedup falls below this ratio (0 = never fail)")
		streamCh   = flag.Int("stream-channels", 4, "streaming scenario: concurrent channels (0 = skip)")
		streamN    = flag.Int("stream-samples", 1<<17, "streaming scenario: samples per channel")
		mapEst     = flag.String("map-estimator", "fam", "mapping scenario: pipeline to schedule")
		mapTiles   = flag.String("map-tiles", "1,2,4,8", "mapping scenario: comma-separated tile counts (empty = skip)")
		mapStrats  = flag.String("map-strategies", strings.Join(tiledcfd.MappingNames(), ","), "mapping scenario: comma-separated strategies")
		wireEst    = flag.String("wire-estimator", "fam", "wire scenario: streaming estimator to serve")
		wireSh     = flag.String("wire-shards", "1,2", "wire scenario: comma-separated shard counts")
		wireCh     = flag.Int("wire-channels", 8, "wire scenario: client connections/channels (0 = skip)")
		wireN      = flag.Int("wire-samples", 1<<16, "wire scenario: samples per channel")
		wireProcs  = flag.String("wire-procs", "1,0", "wire scenario: comma-separated GOMAXPROCS per run (0 = all cores)")
		degSh      = flag.Int("degraded-shards", 2, "degraded scenario: remote shard workers (one gets blackholed)")
		degCh      = flag.Int("degraded-channels", 8, "degraded scenario: concurrent channels (0 = skip)")
		degN       = flag.Int("degraded-samples", 1<<16, "degraded scenario: samples per channel")
		batchProcs = flag.String("batch-procs", "1,4,8",
			"batch scenario: extra GOMAXPROCS settings to sweep, one name@pN row each (empty = skip)")
		prunedAlpha = flag.String("pruned-alpha", "16,32,11,40",
			"pruned scenario: alpha-candidate bin offsets — features plus CFAR reference strips (empty = skip)")
		prunedEst = flag.String("pruned-estimators", "direct,fam,ssca",
			"pruned scenario: comma-separated estimator subset")
		prunedFailBelow = flag.Float64("pruned-fail-below", 0,
			"exit non-zero if the best pruned serving-window speedup falls below this ratio (0 = never fail)")
		prunedWindows = flag.String("pruned-windows", "1024,2048,8192",
			"pruned scenario: serving-window sizes in samples to sweep (one row each)")
		q15Rounds = flag.Int("q15-rounds", 11,
			"q15-kernel scenario: interleaved timing rounds per variant, odd for a clean median (0 = skip)")
		q15Procs = flag.String("q15-procs", "1,0",
			"q15-kernel scenario: comma-separated GOMAXPROCS per sweep row (0 = all cores)")
		q15FailBelow = flag.Float64("q15-fail-below", 0,
			"exit non-zero if fam-q15's float/fixed throughput ratio falls below this on every -q15-procs row (0.5 = fail when fam-q15 costs more than 2x float fam; 0 = never fail)")
		rocTrials = flag.Int("roc-trials", 200,
			"detection scenario: Monte-Carlo trials per hypothesis per curve (0 = skip)")
		rocConf = flag.Float64("roc-conf", 0.99,
			"detection scenario: binomial confidence of the Pfa-accuracy check")
		rocGate = flag.Bool("roc-gate", false,
			"exit non-zero when any asymptotic operating point's measured Pfa falls outside its confidence interval")
		rocOut = flag.String("roc-out", "",
			"also write the detection scenario's ROC report to this standalone JSON path")
	)
	flag.Parse()
	w := wireOpts{estimator: *wireEst, shardsCSV: *wireSh, channels: *wireCh,
		samples: *wireN, procsCSV: *wireProcs}
	d := degradedOpts{estimator: *wireEst, shards: *degSh, channels: *degCh, samples: *degN}
	p := prunedOpts{alphaCSV: *prunedAlpha, estimators: *prunedEst, failBelow: *prunedFailBelow,
		windowsCSV: *prunedWindows}
	r := rocOpts{trials: *rocTrials, confidence: *rocConf, gate: *rocGate, out: *rocOut}
	q := q15Opts{rounds: *q15Rounds, procsCSV: *q15Procs, failBelow: *q15FailBelow}
	if err := run(*out, *k, *m, *blocks, *seed, *names, *baseline, *failBelow, *batchProcs,
		*streamCh, *streamN, *mapEst, *mapTiles, *mapStrats, w, d, p, r, q); err != nil {
		fmt.Fprintln(os.Stderr, "cfdbench:", err)
		os.Exit(1)
	}
}

// prunedOpts bundles the schema-7 alpha-pruning scenario parameters.
type prunedOpts struct {
	alphaCSV   string
	estimators string
	failBelow  float64
	windowsCSV string
}

// q15KernelBlocks is the minimum workload of the Q15-kernel scenario
// in blocks of K samples: long enough that the Q15 pipelines' fixed
// per-snapshot setup stops dominating and the measured ratio tracks
// kernel throughput.
const q15KernelBlocks = 32

// q15Opts bundles the schema-9 Q15-kernel scenario parameters.
type q15Opts struct {
	rounds    int
	procsCSV  string
	failBelow float64
}

// rocOpts bundles the schema-8 detection scenario parameters.
type rocOpts struct {
	trials     int
	confidence float64
	gate       bool
	out        string
}

// wireOpts bundles the schema-5 wire-protocol scenario parameters.
type wireOpts struct {
	estimator string
	shardsCSV string
	channels  int
	samples   int
	procsCSV  string
}

// degradedOpts bundles the schema-6 degraded-mode scenario parameters.
type degradedOpts struct {
	estimator string
	shards    int
	channels  int
	samples   int
}

// fixedRefs pairs each Q15 backend with the float estimator the
// fixed-point scenario compares it against.
var fixedRefs = map[string]string{"fam-q15": "fam", "ssca-q15": "ssca"}

// estimatorSet builds the named batch estimators over one parameter
// set (Blocks applies to the direct DSCF only). peak is the benchmark
// band's largest component magnitude; fixing it as the Q15 estimators'
// InputPeak keeps their batch conditioning identical to the default
// measured-peak path on that band while enabling their streaming
// accumulators, which cannot measure a peak incrementally.
func estimatorSet(p scf.Params, blocks int, peak float64) map[string]scf.Estimator {
	direct := p
	direct.Blocks = blocks
	return map[string]scf.Estimator{
		"direct":   scf.Direct{Params: direct},
		"fam":      fam.FAM{Params: p},
		"ssca":     fam.SSCA{Params: p},
		"fam-q15":  fam.FAMQ15{Params: p, InputPeak: peak},
		"ssca-q15": fam.SSCAQ15{Params: p, InputPeak: peak},
	}
}

// bandPeak returns the largest real/imaginary component magnitude in
// band — the quantity the Q15 estimators condition against.
func bandPeak(band []complex128) float64 {
	var peak float64
	for _, s := range band {
		if v := math.Abs(real(s)); v > peak {
			peak = v
		}
		if v := math.Abs(imag(s)); v > peak {
			peak = v
		}
	}
	return peak
}

func run(out string, k, m, blocks int, seed uint64, names, baseline string, failBelow float64,
	batchProcs string, streamCh, streamN int, mapEst, mapTiles, mapStrats string,
	wopts wireOpts, dopts degradedOpts, popts prunedOpts, ropts rocOpts, qopts q15Opts) error {
	band, err := tiledcfd.NewBPSKBand(k*blocks, 0.125, 8, 10, seed)
	if err != nil {
		return err
	}
	p := scf.Params{K: k, M: m}
	all := estimatorSet(p, blocks, bandPeak(band))
	rep := Report{
		Schema:     9, // 2: streaming; 3: fixed-point; 4: mapping; 5: wire; 6: degraded; 7: alpha pruning + GOMAXPROCS sweep; 8: detector ROC; 9: Q15 kernel datapath
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Geometry: Geometry{
			K: k, M: m, Blocks: blocks, Samples: k * blocks,
			Signal: "bpsk carrier=0.125 symlen=8 snr=10dB", Seed: seed,
		},
		Note: "mult counts are the paper's canonical operation model " +
			"(FAM charged a full P-point second FFT per cell); ns/op is measured wall-clock",
	}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := all[name]
		if !ok {
			known := make([]string, 0, len(all))
			for n := range all {
				known = append(known, n)
			}
			sort.Strings(known)
			return fmt.Errorf("unknown estimator %q (want %s)", name, strings.Join(known, ", "))
		}
		row, err := benchBatch(name, e, band)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, *row)
		fmt.Printf("%-12s %12.0f ns/op %10d B/op %6d allocs/op %10d total_mults\n",
			name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.TotalMults)
	}
	// GOMAXPROCS sweep: the same batch measurements with the scheduler
	// pinned, so the parallel estimator paths' core scaling enters the
	// trajectory. The plain rows above keep the process default and the
	// baseline-comparable names.
	if batchProcs != "" {
		procsList, err := parseCounts(batchProcs, "-batch-procs")
		if err != nil {
			return err
		}
		for _, procs := range procsList {
			if procs < 1 {
				return fmt.Errorf("-batch-procs entry %d must be >= 1", procs)
			}
			for _, name := range strings.Split(names, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				prev := runtime.GOMAXPROCS(procs)
				row, err := benchBatch(fmt.Sprintf("%s@p%d", name, procs), all[name], band)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					return err
				}
				rep.Results = append(rep.Results, *row)
				fmt.Printf("%-12s %12.0f ns/op %10d B/op %6d allocs/op %10d total_mults\n",
					row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.TotalMults)
			}
		}
	}
	var prunedGateErr error
	if popts.alphaCSV != "" {
		rows, err := benchPruned(popts, p, blocks, band, seed)
		if err != nil {
			return fmt.Errorf("pruned scenario: %w", err)
		}
		rep.Pruned = rows
		if popts.failBelow > 0 {
			// The gate holds the headline number: the best serving-window
			// speedup across the measured estimators (directed sensing
			// deploys the estimator that benefits — the serving default,
			// direct — while SSCA's per-sample channelizer is inherently
			// unprunable and would pin an every-row gate near 1x).
			best, bestName := 0.0, ""
			for _, r := range rows {
				if r.ServeSpeedup > best {
					best, bestName = r.ServeSpeedup, r.Name
				}
			}
			if best < popts.failBelow {
				prunedGateErr = fmt.Errorf(
					"pruned-scenario regression: best serving-window speedup %.2fx (%s) below %.2fx",
					best, bestName, popts.failBelow)
			}
		}
	}
	var q15GateErr error
	if qopts.rounds > 0 {
		rows, err := benchQ15Kernel(qopts, all, band, k, seed)
		if err != nil {
			return fmt.Errorf("q15-kernel scenario: %w", err)
		}
		rep.Q15Kernel = rows
		if qopts.failBelow > 0 {
			// The gate holds the headline acceptance number on every
			// GOMAXPROCS row: fam-q15 must stay within 1/failBelow of the
			// float fam it shadows (0.5 = within 2x).
			for _, r := range rows {
				if r.Name != "fam-q15" || r.SWARNsPerOp <= 0 {
					continue
				}
				if ratio := r.FloatNsPerOp / r.SWARNsPerOp; ratio < qopts.failBelow {
					q15GateErr = errors.Join(q15GateErr, fmt.Errorf(
						"q15-kernel regression: fam-q15@p%d float/fixed ratio %.2f below %.2f (fam-q15 costs %.2fx float fam)",
						r.GOMAXPROCS, ratio, qopts.failBelow, r.FixedOverFloat))
				}
			}
		}
	}
	// Fixed-point scenario: every requested Q15 backend against its float
	// reference on the same band.
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		refName, ok := fixedRefs[name]
		if !ok {
			continue
		}
		fe := all[name].(quant.FixedEstimator)
		cmp, err := quant.Compare(band, fe, all[refName])
		if err != nil {
			return fmt.Errorf("fixed-point %s: %w", name, err)
		}
		rep.FixedPoint = append(rep.FixedPoint, FixedPointMeasurement{
			Name:           name,
			Reference:      refName,
			SQNRdB:         cmp.SQNRdB,
			PeakBias:       cmp.PeakBias,
			SaturatedCells: cmp.SaturatedCells,
			Exp:            cmp.Exp,
			ModelCycles:    cmp.Cycles,
		})
		fmt.Printf("%-8s fixed-point vs %-6s %7.1f dB SQNR %+7.3f%% peak bias %8d cycles\n",
			name, refName, cmp.SQNRdB, 100*cmp.PeakBias, cmp.Cycles)
	}
	if streamCh > 0 {
		for _, name := range strings.Split(names, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			sest, ok := all[name].(scf.StreamingEstimator)
			if !ok {
				continue
			}
			sm, err := benchStreaming(name, sest, streamCh, streamN, band)
			if err != nil {
				return fmt.Errorf("streaming %s: %w", name, err)
			}
			rep.Streaming = append(rep.Streaming, *sm)
			fmt.Printf("%-8s streaming %d ch: %8.2fM samples/s %8.1f surfaces/s\n",
				name, sm.Channels, sm.SamplesPerSec/1e6, sm.SurfacesPerSec)
		}
	}
	if wopts.channels > 0 {
		rows, err := benchWire(wopts, all, band)
		if err != nil {
			return fmt.Errorf("wire scenario: %w", err)
		}
		rep.Wire = rows
	}
	if dopts.channels > 0 {
		row, err := benchDegraded(dopts, all, band)
		if err != nil {
			return fmt.Errorf("degraded scenario: %w", err)
		}
		rep.Degraded = row
		fmt.Printf("%-8s degraded %d shards (1 blackholed) %d ch: %8.2fM samples/s %d failovers %d retries %d shed\n",
			row.Name, row.Shards, row.Channels, row.SamplesPerSec/1e6,
			row.Failovers, row.Retries, row.SamplesShed)
	}
	if mapTiles != "" {
		sc, err := benchMapping(mapEst, k, m, blocks, mapTiles, mapStrats, all, band)
		if err != nil {
			return fmt.Errorf("mapping scenario: %w", err)
		}
		rep.Mapping = sc
	}
	var rocGateErr error
	if ropts.trials > 0 {
		roc, err := quant.RunROC(quant.ROCConfig{
			Trials: ropts.trials, Confidence: ropts.confidence, Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("detection scenario: %w", err)
		}
		worst, failures := roc.PfaAccuracy()
		rep.Detection = &DetectionScenario{
			ROCReport: *roc, WorstPfaErr: worst, PfaFailures: failures,
		}
		fmt.Printf("detection ROC: %d curves, worst Pfa error %.4f, %d point(s) outside %.0f%% CI\n",
			len(roc.Curves), worst, len(failures), 100*roc.Confidence)
		if ropts.out != "" {
			buf, err := json.MarshalIndent(roc, "", "  ")
			if err != nil {
				return err
			}
			buf = append(buf, '\n')
			if err := os.WriteFile(ropts.out, buf, 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", ropts.out)
		}
		if ropts.gate && len(failures) > 0 {
			// Deferred like the other gates so the artifact that trips
			// the check is the one written for inspection.
			rocGateErr = fmt.Errorf("detector Pfa-accuracy gate: %d operating point(s) outside the %.0f%% CI: %s",
				len(failures), 100*roc.Confidence, strings.Join(failures, "; "))
		}
	}
	var gateErr error
	if baseline != "" {
		raw, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("parse baseline %s: %w", baseline, err)
		}
		base.Baseline = nil // keep the artifact one level deep
		rep.Baseline = &base
		rep.Speedup = map[string]float64{}
		for _, b := range base.Results {
			for _, c := range rep.Results {
				if b.Name == c.Name && c.NsPerOp > 0 {
					rep.Speedup[b.Name] = b.NsPerOp / c.NsPerOp
				}
			}
		}
		for name, s := range rep.Speedup {
			fmt.Printf("%-8s %.2fx vs baseline\n", name, s)
		}
		if failBelow > 0 {
			var slow []string
			for name, s := range rep.Speedup {
				if s < failBelow {
					slow = append(slow, fmt.Sprintf("%s %.2fx", name, s))
				}
			}
			if len(slow) > 0 {
				sort.Strings(slow)
				// Deferred until after the report is written: the run
				// that trips the gate is exactly the one whose artifact
				// must survive for inspection.
				gateErr = fmt.Errorf("batch-estimator regression: speedup below %.2fx for %s",
					failBelow, strings.Join(slow, ", "))
			}
		}
	} else if failBelow > 0 {
		return fmt.Errorf("-fail-below needs -baseline")
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return errors.Join(gateErr, prunedGateErr, q15GateErr, rocGateErr)
}

// benchQ15Kernel runs the schema-9 Q15-kernel scenario. For each
// -q15-procs setting and each fixed-point estimator, three variants of
// the same full-band estimate — Q15 under the scalar kernels, Q15 under
// the SWAR kernels, and the float reference — are first checked (the
// two kernel implementations must produce the identical QSurface) and
// then timed INTERLEAVED: each round times all variants back to back,
// and the row keeps per-variant medians. Interleaving plus medians is
// deliberate: on a shared runner, absolute ns/op between separate
// benchmark invocations wanders by tens of percent, but the ratio of
// medians over interleaved rounds holds steady — and ratios are what
// the scenario exists to track. The band is the scenario's own: when
// the top-level band is shorter than q15KernelBlocks blocks of K, a
// longer one is synthesised from the same seed so the per-snapshot
// fixed-point setup cost amortises the way a steady-state deployment
// would see it.
func benchQ15Kernel(qopts q15Opts, all map[string]scf.Estimator, band []complex128, k int, seed uint64) ([]Q15KernelMeasurement, error) {
	procsList, err := parseCounts(qopts.procsCSV, "-q15-procs")
	if err != nil {
		return nil, err
	}
	if len(band) < q15KernelBlocks*k {
		band, err = tiledcfd.NewBPSKBand(q15KernelBlocks*k, 0.125, 8, 10, seed)
		if err != nil {
			return nil, err
		}
	}
	// Earlier scenarios leave the GC pacer tuned for their own heap
	// shapes, which penalises the allocation-heavier Q15 variants far
	// more than the float reference and skews the very ratio this
	// scenario gates on. Settle the heap before timing anything.
	runtime.GC()
	debug.FreeOSMemory()
	names := make([]string, 0, len(fixedRefs))
	for name := range fixedRefs {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []Q15KernelMeasurement
	for _, procs := range procsList {
		if procs <= 0 {
			procs = runtime.NumCPU()
		}
		prev := runtime.GOMAXPROCS(procs)
		for _, name := range names {
			fe := all[name].(quant.FixedEstimator)
			ref := all[fixedRefs[name]]
			row, err := benchQ15KernelOnce(name, fixedRefs[name], fe, ref, qopts.rounds, band)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return nil, err
			}
			rows = append(rows, *row)
			fmt.Printf("%-8s q15-kernel p=%d: swar %9.0f ns scalar %9.0f ns (%.2fx) · float %9.0f ns (fixed %.2fx float)\n",
				name, row.GOMAXPROCS, row.SWARNsPerOp, row.ScalarNsPerOp, row.KernelSpeedup,
				row.FloatNsPerOp, row.FixedOverFloat)
		}
		runtime.GOMAXPROCS(prev)
	}
	return rows, nil
}

// benchQ15KernelOnce measures one estimator at the current GOMAXPROCS:
// bit-exactness first, then the interleaved timing rounds.
func benchQ15KernelOnce(name, refName string, fe quant.FixedEstimator, ref scf.Estimator,
	rounds int, band []complex128) (*Q15KernelMeasurement, error) {
	restore := fixed.Use(fixed.ScalarKernels{})
	defer fixed.Use(restore)
	qScalar, _, err := fe.EstimateQ15(band)
	if err != nil {
		return nil, fmt.Errorf("%s scalar: %w", name, err)
	}
	fixed.Use(fixed.SWARKernels{})
	qSWAR, _, err := fe.EstimateQ15(band)
	if err != nil {
		return nil, fmt.Errorf("%s swar: %w", name, err)
	}
	if ok, diff := qScalar.Equal(qSWAR); !ok {
		return nil, fmt.Errorf("%s: scalar and SWAR kernels disagree: %s", name, diff)
	}
	timeOne := func(kern fixed.Kernels, e scf.Estimator) (float64, error) {
		if kern != nil {
			fixed.Use(kern)
		}
		startAt := time.Now()
		_, _, err := e.Estimate(band)
		return float64(time.Since(startAt).Nanoseconds()), err
	}
	scalarNs := make([]float64, 0, rounds)
	swarNs := make([]float64, 0, rounds)
	floatNs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		ns, err := timeOne(fixed.ScalarKernels{}, fe)
		if err != nil {
			return nil, fmt.Errorf("%s scalar: %w", name, err)
		}
		scalarNs = append(scalarNs, ns)
		if ns, err = timeOne(fixed.SWARKernels{}, fe); err != nil {
			return nil, fmt.Errorf("%s swar: %w", name, err)
		}
		swarNs = append(swarNs, ns)
		if ns, err = timeOne(nil, ref); err != nil {
			return nil, fmt.Errorf("%s float ref %s: %w", name, refName, err)
		}
		floatNs = append(floatNs, ns)
	}
	row := &Q15KernelMeasurement{
		Name:          name,
		Reference:     refName,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Rounds:        rounds,
		Samples:       len(band),
		BitExact:      true,
		ScalarNsPerOp: median(scalarNs),
		SWARNsPerOp:   median(swarNs),
		FloatNsPerOp:  median(floatNs),
	}
	if row.SWARNsPerOp > 0 {
		row.KernelSpeedup = row.ScalarNsPerOp / row.SWARNsPerOp
		row.FixedOverFloat = row.SWARNsPerOp / row.FloatNsPerOp
	}
	return row, nil
}

// median returns the middle value of v (mean of the middle two for even
// lengths); v is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// benchBatch times one estimator's full Estimate on the band and
// returns its batch row at the current GOMAXPROCS.
func benchBatch(rowName string, e scf.Estimator, band []complex128) (*Measurement, error) {
	var stats *scf.Stats
	var estErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, st, err := e.Estimate(band)
			if err != nil {
				estErr = err
				b.FailNow()
			}
			stats = st
		}
	})
	if estErr != nil {
		return nil, fmt.Errorf("%s: %w", rowName, estErr)
	}
	return &Measurement{
		Name:           rowName,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NsPerOp:        float64(r.NsPerOp()),
		BytesPerOp:     r.AllocedBytesPerOp(),
		AllocsPerOp:    r.AllocsPerOp(),
		Iterations:     r.N,
		FFTMults:       stats.FFTMults,
		PointwiseMults: stats.DSCFMults,
		TotalMults:     stats.TotalMults(),
		SmoothingLen:   stats.Blocks,
		ModelCycles:    stats.Cycles,
	}, nil
}

// benchPruned runs the schema-7 alpha-pruning scenario: each estimator
// does the same job twice — full plane, and pruned to the candidate set
// — timing the batch op (Estimate + CFAR + feature extraction) and,
// for streaming estimators, the serving-window op (Push + Snapshot +
// CFAR + feature extraction + Reset: the exact per-decision cycle of
// stream.Engine). The pruned strips are checked against the full plane
// cell by cell; bit-identity means MaxAbsDiff exactly 0.
func benchPruned(popts prunedOpts, p scf.Params, blocks int, band []complex128, seed uint64) ([]PrunedMeasurement, error) {
	candidates, err := parseCounts(popts.alphaCSV, "-pruned-alpha")
	if err != nil {
		return nil, err
	}
	windows, err := parseCounts(popts.windowsCSV, "-pruned-windows")
	if err != nil {
		return nil, err
	}
	if windows == nil {
		windows = []int{len(band)}
	}
	// The serve sweep may ask for windows longer than the batch band;
	// extend the same signal to the largest requested window.
	serveBand := band
	for _, w := range windows {
		if w > len(serveBand) {
			if serveBand, err = tiledcfd.NewBPSKBand(w, 0.125, 8, 10, seed); err != nil {
				return nil, err
			}
		}
	}
	pruned := p
	pruned.AlphaCandidates = candidates
	peak := bandPeak(band)
	full := estimatorSet(p, blocks, peak)
	prunedSet := estimatorSet(pruned, blocks, peak)
	cfar := detect.CFAR{}
	var rows []PrunedMeasurement
	for _, name := range strings.Split(popts.estimators, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fe, ok := full[name]
		if !ok {
			return nil, fmt.Errorf("unknown estimator %q", name)
		}
		pe := prunedSet[name]
		// Bit-identity first: the speedup only counts if the pruned
		// strips are exactly the full-plane values.
		fs, _, err := fe.Estimate(band)
		if err != nil {
			return nil, fmt.Errorf("%s full: %w", name, err)
		}
		ps, _, err := pe.Estimate(band)
		if err != nil {
			return nil, fmt.Errorf("%s pruned: %w", name, err)
		}
		diff := stripMaxAbsDiff(fs, ps)
		fullNs, err := benchDecide(fe, cfar, band)
		if err != nil {
			return nil, fmt.Errorf("%s full: %w", name, err)
		}
		prunedNs, err := benchDecide(pe, cfar, band)
		if err != nil {
			return nil, fmt.Errorf("%s pruned: %w", name, err)
		}
		sf, fok := fe.(scf.StreamingEstimator)
		sp, pok := pe.(scf.StreamingEstimator)
		for _, w := range windows {
			var serveFullNs, servePrunedNs float64
			if fok && pok {
				if serveFullNs, err = benchServeWindow(sf, cfar, serveBand[:w]); err != nil {
					return nil, fmt.Errorf("%s full serve w=%d: %w", name, w, err)
				}
				if servePrunedNs, err = benchServeWindow(sp, cfar, serveBand[:w]); err != nil {
					return nil, fmt.Errorf("%s pruned serve w=%d: %w", name, w, err)
				}
			}
			row := PrunedMeasurement{
				Name:               name,
				Candidates:         candidates,
				RowsComputed:       len(ps.Data),
				RowsFull:           len(fs.Data),
				FullNsPerOp:        fullNs,
				PrunedNsPerOp:      prunedNs,
				WindowSamples:      w,
				MaxAbsDiff:         diff,
				PrunedCellsSkipped: pruned.PrunedCellsSkipped(),
				GOMAXPROCS:         runtime.GOMAXPROCS(0),
			}
			if prunedNs > 0 {
				row.Speedup = fullNs / prunedNs
			}
			row.ServeFullNsPerOp, row.ServePrunedNsPerOp = serveFullNs, servePrunedNs
			if servePrunedNs > 0 {
				row.ServeSpeedup = serveFullNs / servePrunedNs
			}
			rows = append(rows, row)
			fmt.Printf("%-8s pruned %d candidates w=%-5d: batch %10.0f -> %9.0f ns/op %5.1fx · serve %10.0f -> %9.0f ns/op %5.1fx (max |diff| %g)\n",
				name, len(candidates), w, fullNs, prunedNs, row.Speedup,
				serveFullNs, servePrunedNs, row.ServeSpeedup, diff)
		}
	}
	return rows, nil
}

// benchDecide times one batch decision on the band: Estimate, the CFAR
// verdict, and the feature-peak extraction the serving layer reports
// with every decision (stream.Engine.decide does the same pair of passes
// over the surface).
func benchDecide(e scf.Estimator, cfar detect.CFAR, band []complex128) (float64, error) {
	var opErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _, err := e.Estimate(band)
			if err == nil {
				_, err = cfar.Examine(s)
				featurePeak(s)
			}
			if err != nil {
				opErr = err
				b.FailNow()
			}
		}
	})
	if opErr != nil {
		return 0, opErr
	}
	return float64(r.NsPerOp()), nil
}

// featurePeak replicates the squared-magnitude feature scan of
// stream.Engine.decide (its maxFeatureMinA with the CFAR default
// MinAbsA), so the timed op spends exactly what the serving layer
// spends per decision. On a pruned surface only the held rows are
// searched.
func featurePeak(s *scf.Surface) (f, a int) {
	const minAbsA = 2 // detect.CFAR default
	best := -1.0
	m := s.M - 1
	alphas := s.AlphaValues()
	for i, row := range s.Data {
		av := alphas[i]
		if av > -minAbsA && av < minAbsA {
			continue
		}
		for fi, v := range row {
			if mag := real(v)*real(v) + imag(v)*imag(v); mag > best {
				best, f, a = mag, fi-m, av
			}
		}
	}
	return f, a
}

// benchServeWindow times one serving window exactly as stream.Engine
// spends it per decision: push the window's samples through the
// estimator's accumulator, snapshot the surface, run the CFAR verdict
// and the feature-peak extraction, and reset for the next window (the
// non-cumulative serving mode). On a pruned channel every stage scales
// with the candidate count — estimation touches only the held rows and
// the snapshot/decision cost follows the sparse surface — which is the
// end-to-end latency directed sensing buys in production.
func benchServeWindow(e scf.StreamingEstimator, cfar detect.CFAR, band []complex128) (float64, error) {
	acc, err := e.NewAccumulator()
	if err != nil {
		return 0, err
	}
	if b, ok := acc.(scf.WindowBounder); ok {
		b.BoundWindow(len(band)) // as the engine's windowed mode does
	}
	// Pre-flight outside the timer: a window too short for this
	// estimator's first snapshot is reported as zero, not an error (the
	// sweep may include windows below an estimator's smoothing needs).
	if err := acc.Push(band); err != nil {
		return 0, err
	}
	if !acc.Ready() {
		return 0, nil
	}
	acc.Reset()
	var opErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc.Reset()
			if err := acc.Push(band); err != nil {
				opErr = err
				b.FailNow()
			}
			s, _, err := acc.Snapshot()
			if err == nil {
				_, err = cfar.Examine(s)
				featurePeak(s)
			}
			if err != nil {
				opErr = err
				b.FailNow()
			}
		}
	})
	if opErr != nil {
		return 0, opErr
	}
	return float64(r.NsPerOp()), nil
}

// stripMaxAbsDiff returns the largest cellwise magnitude difference
// between a full surface and a pruned one over the rows the pruned
// surface holds.
func stripMaxAbsDiff(full, pruned *scf.Surface) float64 {
	worst := 0.0
	alphas := pruned.AlphaValues()
	for i, row := range pruned.Data {
		fullRow := full.Row(alphas[i])
		for j := range row {
			if d := cmplx.Abs(row[j] - fullRow[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// benchMapping runs the schema-4 multi-tile mapping scenario: the
// estimator's pipeline scheduled onto the paper-default fabric at every
// requested strategy × tile count, each schedule validated by
// construction, with the single-tile schedule as the speedup baseline —
// and, per tile count, a measured host streaming run with that many
// concurrent channels (the engine in backpressure mode), so the modeled
// fabric prediction and the host's sustained rate sit side by side.
func benchMapping(estimator string, k, m, blocks int, tilesCSV, strategiesCSV string,
	all map[string]scf.Estimator, band []complex128) (*MappingScenario, error) {
	cfg := tiledcfd.Config{K: k, M: m, Blocks: blocks, Estimator: estimator}
	var tileCounts []int
	for _, s := range strings.Split(tilesCSV, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-map-tiles entry %q is not a positive integer", s)
		}
		tileCounts = append(tileCounts, v)
	}
	if len(tileCounts) == 0 {
		return nil, fmt.Errorf("-map-tiles %q names no tile counts", tilesCSV)
	}
	base, err := tiledcfd.MapEstimate(cfg, tiledcfd.FabricConfig{Tiles: 1}, "single")
	if err != nil {
		return nil, err
	}
	sc := &MappingScenario{Estimator: base.Estimator}
	for _, strategy := range strings.Split(strategiesCSV, ",") {
		if strategy = strings.TrimSpace(strategy); strategy == "" {
			continue
		}
		for i, tc := range tileCounts {
			if strategy == "single" && i > 0 {
				// The single-tile mapping is tile-count-invariant; one
				// row says everything.
				continue
			}
			e, err := tiledcfd.MapEstimate(cfg, tiledcfd.FabricConfig{Tiles: tc}, strategy)
			if err != nil {
				return nil, err
			}
			sc.Rows = append(sc.Rows, MappingMeasurement{
				Strategy:           strategy,
				Tiles:              tc,
				WindowSamples:      e.WindowSamples,
				LatencyMicros:      e.LatencyMicros,
				ModelSamplesPerSec: e.SustainedSamplesPerSec,
				SpeedupVsSingle:    e.SustainedSamplesPerSec / base.SustainedSamplesPerSec,
				NoCWords:           e.NoCWords,
				MemFeasible:        e.MemFeasible,
			})
			fmt.Printf("%-8s mapping %-9s %d tiles: %8.3fM model samples/s %6.2fx vs single %8d NoC words\n",
				sc.Estimator, strategy, tc, e.SustainedSamplesPerSec/1e6,
				e.SustainedSamplesPerSec/base.SustainedSamplesPerSec, e.NoCWords)
		}
	}
	// Host counterpart: the streaming engine fed tiles concurrent
	// channels, reusing the PR 3 scenario at the mapping's channel
	// counts (estimators without an incremental form skip this half).
	if sest, ok := all[sc.Estimator].(scf.StreamingEstimator); ok {
		const perChannel = 1 << 16
		for _, tc := range tileCounts {
			sm, err := benchStreaming(sc.Estimator, sest, tc, perChannel, band)
			if err != nil {
				return nil, err
			}
			sc.Host = append(sc.Host, *sm)
			fmt.Printf("%-8s mapping host      %d ch:    %8.2fM samples/s measured\n",
				sc.Estimator, tc, sm.SamplesPerSec/1e6)
		}
	}
	return sc, nil
}

// parseCounts parses a comma-separated list of non-negative integers.
func parseCounts(csv, flagName string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("%s entry %q is not a non-negative integer", flagName, s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s %q names no counts", flagName, csv)
	}
	return out, nil
}

// routerSink adapts the shard router to the wire server's Sink.
type routerSink struct{ r *shard.Router }

// OpenChannel registers the stream's channel on its shard.
func (s routerSink) OpenChannel(meta wire.Meta) error { return s.r.AddChannel(meta.ID) }

// Push routes decoded samples to the owning shard.
func (s routerSink) Push(id string, samples []complex128) (int, error) {
	return s.r.Push(id, samples)
}

// benchWire runs the schema-5 wire-protocol ingestion scenario: one row
// per -wire-procs × -wire-shards combination.
func benchWire(wopts wireOpts, all map[string]scf.Estimator, band []complex128) ([]WireMeasurement, error) {
	est, ok := all[wopts.estimator]
	if !ok {
		return nil, fmt.Errorf("unknown -wire-estimator %q", wopts.estimator)
	}
	sest, ok := est.(scf.StreamingEstimator)
	if !ok {
		return nil, fmt.Errorf("-wire-estimator %q has no incremental form", wopts.estimator)
	}
	shardCounts, err := parseCounts(wopts.shardsCSV, "-wire-shards")
	if err != nil {
		return nil, err
	}
	procsList, err := parseCounts(wopts.procsCSV, "-wire-procs")
	if err != nil {
		return nil, err
	}
	var rows []WireMeasurement
	for _, procs := range procsList {
		for _, shards := range shardCounts {
			if shards < 1 {
				return nil, fmt.Errorf("-wire-shards entry %d must be >= 1", shards)
			}
			row, err := benchWireOnce(wopts, sest, shards, procs, band)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
			fmt.Printf("%-8s wire %d shards %d conns p=%d: %8.2fM samples/s aggregate\n",
				wopts.estimator, shards, wopts.channels, row.GOMAXPROCS, row.SamplesPerSec/1e6)
		}
	}
	return rows, nil
}

// benchWireOnce saturates one sharded wire server over loopback: every
// channel gets its own connection (so server read loops parallelise)
// and Block-mode engines make TCP backpressure the only pacing — the
// clients run at exactly the service rate, and the wall clock over the
// fully drained run is the saturation throughput.
func benchWireOnce(wopts wireOpts, est scf.StreamingEstimator, shards, procs int, band []complex128) (*WireMeasurement, error) {
	if procs <= 0 {
		procs = runtime.NumCPU()
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	const window = 8192
	r, err := shard.New(shard.Config{
		Shards: shards,
		Engine: stream.Config{
			Estimator:       est,
			SnapshotSamples: window,
			Workers:         procs,
			Block:           true,
		},
	})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	// Keep the merged decision stream drained so nothing is dropped at
	// the buffer; Close ends the channel and the goroutine.
	go func() {
		for range r.Decisions() {
		}
	}()
	srv, err := wire.NewServer(wire.ServerConfig{Sink: routerSink{r}})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, wopts.channels)
	for i := 0; i < wopts.channels; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = streamWireChannel(addr.String(), fmt.Sprintf("wirech%d", i), wopts.samples, band)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The clients have written everything, but some of it may still sit
	// in loopback socket buffers: wait until the server has delivered
	// the full feed to the router before draining the engines.
	want := int64(wopts.channels) * int64(wopts.samples)
	deadline := time.Now().Add(5 * time.Minute)
	for srv.Metrics.SamplesIn.Load() < want {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server ingested %d of %d samples within 5m",
				srv.Metrics.SamplesIn.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Flush(5 * time.Minute); err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	st := r.Stats()
	if st.SamplesIn != want {
		return nil, fmt.Errorf("router ingested %d of %d samples", st.SamplesIn, want)
	}
	if st.SamplesDropped != 0 {
		return nil, fmt.Errorf("dropped %d samples in backpressure mode", st.SamplesDropped)
	}
	row := &WireMeasurement{
		Name:              wopts.estimator,
		Shards:            shards,
		Channels:          wopts.channels,
		Connections:       wopts.channels,
		SamplesPerChannel: wopts.samples,
		SnapshotSamples:   window,
		WorkersPerShard:   procs,
		GOMAXPROCS:        procs,
		WallSeconds:       wall,
		Surfaces:          st.Surfaces,
	}
	if wall > 0 {
		row.SamplesPerSec = float64(st.SamplesIn) / wall
	}
	return row, nil
}

// streamWireChannel is one client connection streaming total samples
// (the band tiled as needed) into its own channel.
func streamWireChannel(addr, id string, total int, band []complex128) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	cs, err := c.Open(wire.Meta{ID: id, Format: wire.FormatCF32, SampleRateHz: 1e6})
	if err != nil {
		return err
	}
	for fed := 0; fed < total; {
		n := len(band)
		if fed+n > total {
			n = total - fed
		}
		if err := cs.Send(band[:n]); err != nil {
			return err
		}
		fed += n
	}
	return cs.Close()
}

// benchStreaming measures the sustained multi-channel streaming
// throughput of one estimator: channels concurrent feeders push total
// samples each (the test band tiled as needed) through a backpressured
// engine with the default window, and the wall clock over the fully
// drained run yields samples/sec and surfaces/sec.
func benchStreaming(name string, est scf.StreamingEstimator, channels, total int, band []complex128) (*StreamingMeasurement, error) {
	const window = 8192
	eng, err := stream.New(stream.Config{
		Estimator:       est,
		SnapshotSamples: window,
		Block:           true,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ids := make([]string, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("ch%d", i)
		if err := eng.AddChannel(ids[i]); err != nil {
			return nil, err
		}
	}
	startAt := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, channels)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for fed := 0; fed < total; {
				n := len(band)
				if fed+n > total {
					n = total - fed
				}
				if _, err := eng.Push(id, band[:n]); err != nil {
					errs[i] = err
					return
				}
				fed += n
			}
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := eng.Flush(5 * time.Minute); err != nil {
		return nil, err
	}
	wall := time.Since(startAt).Seconds()
	st := eng.Stats()
	if st.SamplesDropped != 0 {
		return nil, fmt.Errorf("dropped %d samples in backpressure mode", st.SamplesDropped)
	}
	sm := &StreamingMeasurement{
		Name:              name,
		Channels:          channels,
		SamplesPerChannel: total,
		SnapshotSamples:   window,
		Workers:           runtime.GOMAXPROCS(0), // engine default: one per schedulable core
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		WallSeconds:       wall,
		Surfaces:          st.Surfaces,
	}
	if wall > 0 {
		sm.SamplesPerSec = float64(st.SamplesIn) / wall
		sm.SurfacesPerSec = float64(st.Surfaces) / wall
	}
	return sm, nil
}

// workerSink adapts a stream engine to a worker-mode wire server's data
// plane (the degraded scenario's in-process shard workers).
type workerSink struct{ eng *stream.Engine }

// OpenChannel registers the stream's channel on the worker engine.
func (s workerSink) OpenChannel(meta wire.Meta) error { return s.eng.AddChannel(meta.ID) }

// Push feeds decoded samples to the worker engine.
func (s workerSink) Push(id string, samples []complex128) (int, error) {
	return s.eng.Push(id, samples)
}

// benchDegraded runs the schema-6 degraded-mode scenario: a router
// drives dopts.shards in-process remote shard workers over loopback,
// every remote wrapped in the robustness layer, and once half the feed
// is in, worker 0 is blackholed — its connections stay open but stop
// moving bytes, so only the per-push deadline can unstick the router.
// The feeders keep pushing through the fault; the circuit opens, the
// dead worker's channels re-home onto the survivors, and the run's
// aggregate rate plus the fault's cost (failovers, retries, shed
// samples) become the artifact row.
func benchDegraded(dopts degradedOpts, all map[string]scf.Estimator, band []complex128) (*DegradedMeasurement, error) {
	est, ok := all[dopts.estimator]
	if !ok {
		return nil, fmt.Errorf("unknown estimator %q", dopts.estimator)
	}
	sest, ok := est.(scf.StreamingEstimator)
	if !ok {
		return nil, fmt.Errorf("estimator %q has no incremental form", dopts.estimator)
	}
	if dopts.shards < 2 {
		return nil, fmt.Errorf("-degraded-shards %d: need at least 2 so failover has a survivor", dopts.shards)
	}
	const window = 8192
	engCfg := stream.Config{Estimator: sest, SnapshotSamples: window, Block: true}

	// In-process shard workers; worker 0's listener goes through the
	// fault controller so it can be blackholed mid-run.
	ctl := chaos.NewController(42)
	remotes := make([]shard.RemoteShard, dopts.shards)
	for i := 0; i < dopts.shards; i++ {
		eng, err := stream.New(engCfg)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		srv, err := wire.NewServer(wire.ServerConfig{
			Sink: workerSink{eng}, Engine: eng, RemoveOnClose: true,
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			srv.Serve(chaos.NewListener(ln, ctl))
		} else {
			srv.Serve(ln)
		}
		remotes[i] = shard.RemoteShard{Name: fmt.Sprintf("r%d", i), Addr: ln.Addr().String()}
	}
	guard := shard.GuardConfig{
		PushTimeout:    250 * time.Millisecond,
		MaxRetries:     1,
		RetryBackoff:   5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		FailThreshold:  1,
		Cooldown:       time.Second,
		HealthInterval: 50 * time.Millisecond,
		Seed:           42,
	}
	r, err := shard.New(shard.Config{
		Engine:        engCfg,
		Remotes:       remotes,
		Guard:         guard,
		FallbackLocal: true,
	})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	go func() {
		for range r.Decisions() {
		}
	}()
	ids := make([]string, dopts.channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("degch%d", i)
		if err := r.AddChannel(ids[i]); err != nil {
			return nil, err
		}
	}
	var (
		attempted atomic.Int64
		faultOnce sync.Once
	)
	// Trip the fault a quarter of the way in, so most of the feed runs
	// through detection, failover and the degraded steady state.
	trip := int64(dopts.channels) * int64(dopts.samples) / 4
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, dopts.channels)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for fed := 0; fed < dopts.samples; {
				n := len(band)
				if fed+n > dopts.samples {
					n = dopts.samples - fed
				}
				// A shed push returns (0, nil): the robustness layer already
				// accounted the loss, so the feeder moves on — a live source
				// cannot rewind its antenna either.
				if _, err := r.Push(id, band[:n]); err != nil {
					errs[i] = err
					return
				}
				fed += n
				if attempted.Add(int64(n)) >= trip {
					faultOnce.Do(func() { ctl.Blackhole(true) })
				}
			}
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Wait for the health loop to declare the blackholed shard dead
	// before flushing: a wedged worker absorbs small feeds into socket
	// buffers without ever failing a push, and the live-only Flush must
	// not commit a long round-trip to a shard the breaker is about to
	// disown.
	deadline := time.Now().Add(30 * time.Second)
	for r.Stats().Failovers == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("blackhole never tripped a failover (stats %+v)", r.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Flush(5 * time.Minute); err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	st := r.Stats()
	row := &DegradedMeasurement{
		Name:              dopts.estimator,
		Shards:            dopts.shards,
		Channels:          dopts.channels,
		SamplesPerChannel: dopts.samples,
		SnapshotSamples:   window,
		HealthIntervalMs:  float64(guard.HealthInterval) / float64(time.Millisecond),
		WallSeconds:       wall,
		SamplesAttempted:  int64(dopts.channels) * int64(dopts.samples),
		SamplesAccepted:   st.SamplesIn,
		SamplesShed:       st.ShedSamples,
		Retries:           st.Retries,
		DeadlineExceeded:  st.DeadlineExceeded,
		Failovers:         st.Failovers,
		Surfaces:          st.Surfaces,
		OpenCircuits:      st.OpenCircuits,
	}
	if wall > 0 {
		row.SamplesPerSec = float64(st.SamplesIn) / wall
	}
	return row, nil
}
