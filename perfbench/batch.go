package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"tiledcfd"
	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/soc"
)

// The batch workload's geometry: the paper's K=256, M=64 on Q=4 tiles,
// with 8 integration blocks per 2048-sample window.
const (
	batchK, batchM, batchQ, batchBlocks = 256, 64, 4, 8
	batchWindow                         = batchK * batchBlocks
	// The capture: a BPSK user is absent, appears, then vacates.
	batchIdle, batchBusy = 8, 8
	batchSNR             = 12.0
	batchCarrierBin      = 20
	// referenceSeed fixes the input of the modeled fam-q15 cycle count,
	// whose block-floating-point scaling depends on the data, so the
	// count is a function of the code alone.
	referenceSeed = 1
)

// batchEstimators are the paths Watch runs, in the order of each round.
var batchEstimators = []string{"platform", "ssca", "fam-q15", "fam", "direct"}

func batchConfig(est string) tiledcfd.Config {
	return tiledcfd.Config{K: batchK, M: batchM, Q: batchQ, Blocks: batchBlocks, Estimator: est, Detector: "cfar"}
}

// batchCapture generates the seeded capture and its per-window truth.
func batchCapture(seed uint64) ([]complex128, []bool, error) {
	noisePower := 0.5 / math.Pow(10, batchSNR/10)
	var x []complex128
	var truth []bool
	for seg, n := range []int{batchIdle, batchBusy, batchIdle} {
		busy := seg == 1
		s := seed*1_000_003 + uint64(seg)*7919
		var part []complex128
		var err error
		if busy {
			part, err = tiledcfd.NewBPSKBand(n*batchWindow, float64(batchCarrierBin)/batchK, symbolLen, batchSNR, s)
		} else {
			part, err = tiledcfd.NewNoiseBand(n*batchWindow, noisePower, s)
		}
		if err != nil {
			return nil, nil, err
		}
		x = append(x, part...)
		for i := 0; i < n; i++ {
			truth = append(truth, busy)
		}
	}
	return x, truth, nil
}

func runWatchBatch(o options, out *outcome) error {
	// The batch path runs on one core. With two, its estimators' worker
	// goroutines and the platform's tile goroutines hand work across
	// vCPUs, and the speed-up depends on how promptly the hypervisor runs
	// the second vCPU: the rate spread by 0.25 to 0.42 over ten runs while
	// the CPU per verdict held within 0.05. On one core the rate follows
	// the CPU time, which the calibration scales.
	runtime.GOMAXPROCS(1)
	x, truth, err := batchCapture(o.seed)
	if err != nil {
		return err
	}
	nWin := len(truth)
	out.run["windows"], out.run["window_samples"], out.run["snr_db"] = nWin, batchWindow, batchSNR
	out.run["estimators"] = batchEstimators

	// Reference verdicts: one Watch call over the whole capture per path.
	ref := map[string][]tiledcfd.WindowVerdict{}
	for _, est := range batchEstimators {
		v, err := tiledcfd.Watch(x, batchConfig(est))
		if err != nil {
			return fmt.Errorf("watch %s: %w", est, err)
		}
		ref[est] = v
	}

	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	// Set-up is timed half before and half after the measured rounds.
	setups, err := batchSetups(setupReps / 2)
	if err != nil {
		return err
	}
	// Untraced: interleaved rounds, one window per path per round, each
	// a Watch call over that window alone. The rounds run in slices
	// between calibrations of the host's speed; the first slice is the
	// warm-up.
	windowMs := map[string][]float64{}
	var callMs []stamped
	var slices []slice
	right, verdicts := 0, 0
	var heapMB []float64
	cal := newCalibrator()
	runtime.GC() // the peak heap is the rounds' own
	before := cal.measure()
	start := time.Now()
	sliceEnd := start.Add(warmup)
	var watchTime time.Duration
	sliceRounds, sliceVerdicts, first := 0, 0, true
	cpu0 := processCPU()
	for r := 0; time.Since(start).Seconds() < seconds; r++ {
		w := r % nWin
		win := x[w*batchWindow : (w+1)*batchWindow]
		for _, est := range batchEstimators {
			t := time.Now()
			v, err := tiledcfd.Watch(win, batchConfig(est))
			d := time.Since(t)
			out.attempted++
			if err != nil || len(v) != 1 {
				out.failed++
				out.problem("watch %s window %d: %v (%d verdicts)", est, w, err, len(v))
				continue
			}
			watchTime += d
			sliceVerdicts++
			ms := float64(d.Nanoseconds()) / 1e6
			windowMs[est] = append(windowMs[est], ms)
			callMs = append(callMs, stamped{t, ms})
			want := ref[est][w]
			if math.Float64bits(v[0].Statistic) != math.Float64bits(want.Statistic) || v[0].Detected != want.Detected {
				out.problem("watch %s window %d: statistic %v alone, %v in the capture", est, w, v[0].Statistic, want.Statistic)
			}
			verdicts++
			if v[0].Detected == truth[w] {
				right++
			}
		}
		sliceRounds++
		heapMB = append(heapMB, heapGoal()/(1<<20))
		if time.Now().After(sliceEnd) {
			cpu := processCPU() - cpu0
			after := cal.measure()
			if !first && sliceRounds >= minRoundsPerSlice && sliceVerdicts > 0 {
				slices = append(slices, slice{
					rate:  float64(sliceVerdicts*batchWindow) / watchTime.Seconds(),
					cpuMs: cpu.Seconds() * 1e3 / float64(sliceVerdicts), before: before, after: after,
				})
			}
			before, first = after, false
			sliceEnd = time.Now().Add(sliceLen)
			watchTime, sliceRounds, sliceVerdicts = 0, 0, 0
			cpu0 = processCPU()
		}
	}
	after, err := batchSetups(setupReps - setupReps/2)
	if err != nil {
		return err
	}
	setups = append(setups, after...)
	out.run["latency_ms"] = tail(callMs)
	reportLatency(out, callMs, start, o.trace)
	if !o.trace {
		if err := reportSlices(out, slices, batchElasticity); err != nil {
			return err
		}
		out.rep.value("verdict_accuracy", float64(right)/float64(verdicts), "share of verdicts matching ground truth", verdicts)
		out.rep.percentile("peak_heap_mb", heapMB, peakHeapQuantile)
		out.rep.percentile("setup_s", scaleSetups(out, setups, slices), 0.5)
		return nil
	}
	for _, est := range batchEstimators {
		out.rep.percentile("window_ms."+est, windowMs[est], 0.5)
	}
	if err := modelCounts(out, x[:batchWindow]); err != nil {
		return err
	}
	return tracedBatch(o, out, x, ref, seconds)
}

// batchElasticity is how the batch paths follow the host's speed: over
// six runs whose raw rate spread by 0.24 as the host's speed changed,
// the scaled rate spread by 0.08 at 0.5, 0.05 at 0.6 and 0.7, and 0.09 at 1.
var batchElasticity = elasticity{rate: 0.65, cpu: 0.65}

// minRoundsPerSlice keeps a short trailing slice, whose few rounds vary
// more, out of the median.
const minRoundsPerSlice = 10

// batchSetups times, in process CPU time, what each window of the batch
// path builds before it computes: the decision layer and the tiled
// platform.
func batchSetups(n int) ([]float64, error) {
	var v []float64
	for r := 0; r < n; r++ {
		t := processCPU()
		if _, err := batchDecider(); err != nil {
			return nil, err
		}
		if _, err := soc.New(platformConfig()); err != nil {
			return nil, err
		}
		v = append(v, (processCPU() - t).Seconds())
	}
	return v, nil
}

func platformConfig() soc.Config {
	return soc.Config{K: batchK, M: batchM, Q: batchQ, Blocks: batchBlocks}.WithDefaults()
}

// batchDecider is the cfar decider Watch builds for Detector "cfar".
func batchDecider() (detect.Decider, error) {
	return detect.NewDecider("cfar", detect.DeciderParams{
		Scf: batchParams().WithDefaults(), MinAbsA: 2,
	})
}

func batchParams() scf.Params {
	return scf.Params{K: batchK, M: batchM, Blocks: batchBlocks}
}

// modelCounts records the platform's exact cost model from untimed Sense
// calls: Table 1 of the busiest tile, NoC traffic, the simulated
// integration-step time, and the modeled fam-q15 cycles.
func modelCounts(out *outcome, win []complex128) error {
	s, err := tiledcfd.Sense(win, batchConfig("platform"))
	if err != nil {
		return err
	}
	b := s.Breakdown
	out.rep.value("sim_block_us", s.BlockTimeMicros, "exact (simulated)", 1)
	out.rep.value("montium.table1.mac", float64(b.MultiplyAccumulate), "exact", 1)
	out.rep.value("montium.table1.read", float64(b.ReadData), "exact", 1)
	out.rep.value("montium.table1.fft", float64(b.FFT), "exact", 1)
	out.rep.value("montium.table1.reshuffle", float64(b.Reshuffle), "exact", 1)
	out.rep.value("montium.table1.init", float64(b.Initialisation), "exact", 1)
	out.rep.value("noc.values_per_block", float64(s.NoCValues)/batchBlocks, "exact", 1)
	refWin, err := tiledcfd.NewBPSKBand(batchWindow, float64(batchCarrierBin)/batchK, symbolLen, batchSNR, referenceSeed)
	if err != nil {
		return err
	}
	q, err := tiledcfd.Sense(refWin, batchConfig("fam-q15"))
	if err != nil {
		return err
	}
	out.rep.value("montium.model_cycles.fam-q15", float64(q.ModelCycles), "exact, fixed reference window", 1)
	return nil
}

// tracedBatch replays every window through the layers Watch calls —
// Estimate and Decide, or the platform's Run and Decide — timing each,
// and checks the replayed verdicts against Watch's.
func tracedBatch(o options, out *outcome, x []complex128, ref map[string][]tiledcfd.WindowVerdict, seconds float64) error {
	dec, err := batchDecider()
	if err != nil {
		return err
	}
	p := batchParams()
	ests := map[string]scf.Estimator{
		"direct":  scf.Direct{Params: p},
		"fam":     fam.FAM{Params: p},
		"ssca":    fam.SSCA{Params: p},
		"fam-q15": fam.FAMQ15{Params: p},
	}
	estMs := map[string][]float64{}
	var decideUs, runMs []float64
	var timed time.Duration
	var simCycles float64
	nWin := len(x) / batchWindow
	windows := 0
	stopProfile, err := startProfile(o.cpuprofile)
	if err != nil {
		return err
	}
	before := readCPUClasses()
	start := time.Now()
	for r := 0; time.Since(start).Seconds() < seconds; r++ {
		w := r % nWin
		win := x[w*batchWindow : (w+1)*batchWindow]
		for _, name := range batchEstimators {
			var surf *scf.Surface
			t := time.Now()
			if name == "platform" {
				plat, err := soc.New(platformConfig())
				if err != nil {
					return err
				}
				cond := append([]complex128(nil), win...)
				fixed.ScaleSliceFloat(cond, 0.5)
				fx, rep, err := plat.Run(fixed.FromFloatSlice(cond))
				if err != nil {
					return err
				}
				d := time.Since(t)
				runMs = append(runMs, float64(d.Nanoseconds())/1e6)
				simCycles += float64(rep.CyclesPerBlock) * batchBlocks
				surf = fx.Float(batchBlocks)
			} else {
				s, _, err := ests[name].Estimate(win)
				if err != nil {
					return err
				}
				estMs[name] = append(estMs[name], float64(time.Since(t).Nanoseconds())/1e6)
				surf = s
			}
			t2 := time.Now()
			d, err := dec.Decide(surf, win)
			dd := time.Since(t2)
			timed += time.Since(t)
			decideUs = append(decideUs, float64(dd.Nanoseconds())/1e3)
			if err != nil {
				return err
			}
			windows++
			if want := ref[name][w]; math.Float64bits(d.Statistic) != math.Float64bits(want.Statistic) {
				out.problem("traced %s window %d: statistic %v, Watch %v", name, w, d.Statistic, want.Statistic)
			}
		}
	}
	after := readCPUClasses()
	if err := stopProfile(); err != nil {
		return err
	}
	for name := range ests {
		out.rep.percentile("estimate_ms."+name, estMs[name], 0.5)
	}
	out.rep.percentile("detect.decide_us", decideUs, 0.5)
	out.rep.percentile("soc.run_ms", runMs, 0.5)
	var runTotal float64
	for _, v := range runMs {
		runTotal += v / 1e3
	}
	out.rep.value("soc.sim_cycles_per_host_s", simCycles/runTotal, "simulated cycles / host seconds in Run", len(runMs))
	sh, err := attribute(before, after, 0, timed.Seconds())
	if err != nil {
		out.problem("reconciliation: %v", err)
	}
	reportShares(out, sh, windows)
	return nil
}
