package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. On a shared host the speed a core delivers
// changes by up to a factor of two within minutes (a busy or idle
// sibling hyperthread, other tenants' memory traffic), in process CPU
// time as much as in wall time, and every time figure follows it: over
// ten 30-s runs of the same code the raw saturated rate spread by 0.49
// (interquartile range over median), watch-batch's rate by 0.42 and the
// paced CPU per window by 0.26, while the kernel below ran at 23000 to
// 61000 passes per second per goroutine. So each workload alternates
// measured slices with short runs of a fixed kernel the benchmark owns,
// and reports each slice's rate and CPU per window scaled to the kernel's
// reference speed, taking the median over slices. The kernel is the FAM
// fold's inner loop shape (indexed complex products summed into a grid of
// cells); being benchmark code, it does not change when the program does,
// so a program change shows in full while a host speed change cancels.
// Work unlike the kernel's follows the host's speed less than the kernel
// does, so each workload scales by a power of the speed ratio, its
// elasticity, fitted over runs spanning slow and fast host phases.

const (
	calibK, calibRows, calibCols = 256, 64, 127
	// refFoldsPerSecond is the reference speed: kernel folds per second
	// of one core. Scaled figures read as if every core ran at it.
	refFoldsPerSecond = 30000
	calibDuration     = 250 * time.Millisecond
	// sliceLen is a measured slice between calibrations.
	sliceLen = 2 * time.Second
)

// calibKernel is one goroutine's calibration state.
type calibKernel struct {
	chn, chc []complex128
	grid     [][]complex128
}

func newCalibKernel(seed int64) *calibKernel {
	r := rand.New(rand.NewSource(seed))
	c := &calibKernel{chn: make([]complex128, calibK), chc: make([]complex128, calibK)}
	for i := range c.chn {
		c.chn[i] = complex(r.NormFloat64(), r.NormFloat64())
		c.chc[i] = complex(real(c.chn[i]), -imag(c.chn[i]))
	}
	c.grid = make([][]complex128, calibRows)
	cells := make([]complex128, calibRows*calibCols)
	for i := range c.grid {
		c.grid[i], cells = cells[:calibCols], cells[calibCols:]
	}
	return c
}

// fold adds one hop's products to every cell, offset by step.
func (c *calibKernel) fold(step int) {
	const mask = calibK - 1
	m := calibRows - 1
	for a, row := range c.grid {
		pi := (a - m + step) & mask
		qi := (-a - m + step) & mask
		for fi := range row {
			row[fi] += c.chn[pi] * c.chc[qi]
			pi = (pi + 1) & mask
			qi = (qi + 1) & mask
		}
	}
}

// hostSpeed is one calibration: kernel folds per second of wall time per
// goroutine, and per second of process CPU time.
type hostSpeed struct{ wall, cpu float64 }

// calibrator runs the kernel on GOMAXPROCS goroutines, as many as the
// workload keeps busy.
type calibrator struct{ ks []*calibKernel }

func newCalibrator() *calibrator {
	c := &calibrator{}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		c.ks = append(c.ks, newCalibKernel(int64(g+1)))
	}
	return c
}

// measure runs the kernel on every goroutine for calibDuration. The
// workload must be idle meanwhile, so the kernel has the host to itself.
func (c *calibrator) measure() hostSpeed {
	counts := make([]int, len(c.ks))
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	end := start.Add(calibDuration)
	for g, k := range c.ks {
		wg.Add(1)
		go func(g int, k *calibKernel) {
			defer wg.Done()
			for time.Now().Before(end) {
				for i := 0; i < 16; i++ {
					k.fold(i)
				}
				counts[g] += 16
			}
		}(g, k)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	cpu := (processCPU() - cpu0).Seconds()
	n := 0
	for _, v := range counts {
		n += v
	}
	return hostSpeed{wall: float64(n) / wall / float64(len(c.ks)), cpu: float64(n) / cpu}
}

// slice is one measured span of a closed loop between two calibrations.
type slice struct {
	from, to time.Time
	rate     float64 // samples/s in the slice, host time
	cpuMs    float64 // process CPU ms per window in the slice
	before   hostSpeed
	after    hostSpeed
}

// elasticity is how strongly a workload's time figures follow the
// host's speed, as measured by the kernel: a rate is scaled by
// (reference/speed)^rate and a CPU time by (speed/reference)^cpu. At 1 a
// figure moves as the kernel does; at 0 it is not scaled (an open loop's
// rate, which its schedule sets).
type elasticity struct{ rate, cpu float64 }

// reportSlices reports the time metrics as medians over the slices, each
// scaled to the reference speed by the mean of the calibrations on
// either side of it, and records the raw figures.
func reportSlices(out *outcome, slices []slice, e elasticity) error {
	var rate, cpu, rawRate, rawCPU, speed, cpuSpeed []float64
	for _, s := range slices {
		if s.rate == 0 {
			continue
		}
		rate = append(rate, s.rate*math.Pow(2*refFoldsPerSecond/(s.before.wall+s.after.wall), e.rate))
		cpu = append(cpu, s.cpuMs*math.Pow((s.before.cpu+s.after.cpu)/2/refFoldsPerSecond, e.cpu))
		rawRate = append(rawRate, s.rate)
		rawCPU = append(rawCPU, s.cpuMs)
		speed = append(speed, s.after.wall)
		cpuSpeed = append(cpuSpeed, s.after.cpu)
	}
	if len(rate) == 0 {
		return fmt.Errorf("no measured slice: the run is shorter than its warm-up and one slice")
	}
	out.rep.median("samples_per_s", rate, fmt.Sprintf(
		"median over 2-s slices of the slice rate × (reference/host speed)^%g", e.rate))
	out.rep.median("cpu_ms_per_window", cpu, fmt.Sprintf(
		"median over 2-s slices of process CPU per window × (host speed/reference)^%g", e.cpu))
	_, medRate, _ := quartiles(append([]float64(nil), rawRate...))
	_, medCPU, _ := quartiles(append([]float64(nil), rawCPU...))
	out.run["calibration"] = map[string]any{
		"ref_folds_per_s":                refFoldsPerSecond,
		"elasticity":                     map[string]float64{"rate": e.rate, "cpu": e.cpu},
		"host_folds_per_s_by_slice":      speed,
		"host_folds_per_cpu_s_by_slice":  cpuSpeed,
		"raw_samples_per_s_by_slice":     rawRate,
		"raw_cpu_ms_per_window_by_slice": rawCPU,
		"raw_samples_per_s":              medRate,
		"raw_cpu_ms_per_window":          medCPU,
	}
	return nil
}

// setupElasticity is how set-up CPU time follows the host's speed. The
// fitted slopes were 0.83 on serve-fam-saturate and 0.66 on watch-batch
// over thirty runs each; at 0.6 the saturate set-up median of ten runs in
// a phase of fast host speed read 4.69 ms, against 4.63 and 4.57 ms in
// two steady phases, where unscaled it read 3.59, 4.75 and 4.65 ms.
const setupElasticity = 0.6

// scaleSetups scales set-up CPU times to the reference speed by the
// median CPU-time speed of the run's calibrations, and records the raw
// median.
func scaleSetups(out *outcome, setups []float64, slices []slice) []float64 {
	var speed []float64
	for _, s := range slices {
		speed = append(speed, s.before.cpu, s.after.cpu)
	}
	_, med, _ := quartiles(speed)
	_, raw, _ := quartiles(append([]float64(nil), setups...))
	out.run["raw_setup_s"] = raw
	f := math.Pow(med/refFoldsPerSecond, setupElasticity)
	v := make([]float64, len(setups))
	for i, x := range setups {
		v[i] = x * f
	}
	return v
}
