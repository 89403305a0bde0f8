package fam

import (
	"runtime"
	"sync"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/montium"
	"tiledcfd/internal/scf"
)

// FAMQ15 is the Q15 fixed-point FFT Accumulation Method: the same
// channelizer geometry as FAM, but every arithmetic step runs on the
// 16-bit saturating datapath of internal/fixed — input quantisation with
// backoff, a block-floating-point channelizer FFT with tracked per-hop
// exponents, Q15 downconversion, and wide (int64) cell accumulation
// reduced to a Q15 surface by one surface-level rounding. The result is
// bit-exact deterministic: identical across runs, across any Workers
// setting, and across every fixed.Kernels implementation (the SWAR and
// scalar kernels agree to the bit by contract).
//
// Estimate returns the surface converted exactly into float-FAM units
// (so detectors and cross-checks are drop-in); EstimateQ15 exposes the
// underlying Q15 words and exponent. Stats charge the Montium Table-1
// kernel cycle model on top of the canonical mult counts and record the
// kernel implementation that ran in Stats.Kernel.
type FAMQ15 struct {
	// Params configures the channelizer and grid exactly as for FAM
	// (K=256, M=K/4, Hop=K/4, rectangular window by default; Blocks is
	// ignored — the smoothing length is derived from the input).
	Params scf.Params
	// Workers bounds the goroutines evaluating surface rows concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial path. All
	// arithmetic is integer and each cell is written exactly once, so
	// every worker count produces bit-identical surfaces.
	Workers int
	// InputScale is the peak amplitude the input is conditioned to
	// before Q15 quantisation — the word-level backoff of the paper's
	// section 4.1 dynamic-range argument, with the same semantics (and
	// the same 0.5 default, 6 dB of headroom) as core.Config.InputScale
	// on the platform path. Must lie in (0, 1]. The conditioning gain is
	// divided back out of the returned surface.
	InputScale float64
	// InputPeak, when positive, fixes the amplitude the conditioning
	// treats as full scale instead of measuring the batch peak — the
	// deterministic front end a fixed-gain ADC presents, and the setting
	// NewAccumulator requires (a streaming path cannot know the future
	// peak). Samples beyond InputPeak saturate at the Q15 rails. Zero
	// keeps the measured-peak batch behaviour.
	InputPeak float64
	// Policy selects the per-stage FFT scaling: fft.ScaleBFP (default,
	// block-floating-point with tracked exponents) or fft.ScaleUniform
	// (the Montium kernel's unconditional 1/2 per stage).
	Policy fft.ScalingPolicy
}

// Name implements scf.Estimator.
func (FAMQ15) Name() string { return "fam-q15" }

// MinSamples returns the shortest input Estimate accepts for the
// configured geometry: two channelizer hops.
func (e FAMQ15) MinSamples() int {
	p := famDefaults(e.Params, 0)
	return p.K + p.Hop
}

// Estimate implements scf.Estimator: the Q15 surface converted exactly
// into float-FAM units.
func (e FAMQ15) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	q, stats, err := e.EstimateQ15(x)
	if err != nil {
		return nil, nil, err
	}
	return q.Float(), stats, nil
}

// EstimateQ15 computes the surface in its native Q15-plus-exponent form.
func (e FAMQ15) EstimateQ15(x []complex128) (*scf.QSurface, *scf.Stats, error) {
	p := famDefaults(e.Params, 0)
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	backoff, err := q15Backoff(e.InputScale)
	if err != nil {
		return nil, nil, err
	}
	peak, err := q15InputPeak(e.InputPeak)
	if err != nil {
		return nil, nil, err
	}
	np := famSmoothing(p, len(x))
	if np == 0 {
		return nil, nil, needSamples("FAM-Q15", p.K+p.Hop, len(x))
	}
	win, err := fft.FixedWindow(p.Window, p.K)
	if err != nil {
		return nil, nil, err
	}
	kern := fixed.Active()
	need := p.K + (np-1)*p.Hop
	xq, gain := quantiseQ15(x, need, backoff, peak)
	ch, err := channelizeQ15(kern, xq, p.K, p.Hop, np, win, e.Policy)
	if err != nil {
		return nil, nil, err
	}
	return famQ15Finish(p, kern, ch, gain, e.Workers, need)
}

// famQ15Finish runs the second stage of the Q15 FAM on an already
// channelized snapshot: exponent alignment, the bin-0 dot products for
// the non-negative cycle rows, the exact Hermitian mirror into the
// negative rows, and the single-rounding surface reduction. It is
// shared verbatim by the batch estimator and the streaming
// accumulator's Snapshot, which is what makes the two bit-identical.
// The channelizer is consumed (alignment shifts its rows in place).
func famQ15Finish(p scf.Params, kern fixed.Kernels, ch *q15Channelizer, gain float64, workers, need int) (*scf.QSurface, *scf.Stats, error) {
	np := len(ch.hops)
	emax, aligned := ch.alignExponents(kern)
	// Every cell (f, a) is the full-precision sum over hops of
	// ch[f+a](n)·conj(ch[f-a](n)) — the bin-0 dot product of the second
	// FFT, like the float path — accumulated int64 at Q30. Only the
	// rows a >= 0 are evaluated; row -a is the exact termwise conjugate
	// of row +a, so mirrorHermitian fills it at accumulator precision.
	m := p.M - 1
	grid := newAccGridFor(p)
	rowAlphas := grid.rowAlphas()
	posRows := make([]int, 0, m+1)
	for ai, a := range rowAlphas {
		if a >= 0 {
			posRows = append(posRows, ai)
		}
	}
	posAlphas := make([]int, len(posRows))
	for i, ai := range posRows {
		posAlphas[i] = rowAlphas[ai]
	}
	chv := ch.transposeWide(neededChannels(p.K, m, posAlphas, true))
	cols := 2*m + 1
	mask := p.K - 1
	rowJob := func(ai int) {
		a := rowAlphas[ai]
		row := grid.data[ai]
		pi := (a - m) & mask
		qi := (-a - m) & mask
		for fi := 0; fi < cols; fi++ {
			re, im := kern.DotConjQ30(chv[pi], chv[qi])
			row[fi] = fixed.CAcc{Re: re, Im: im}
			pi = (pi + 1) & mask
			qi = (qi + 1) & mask
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(posRows) {
		workers = len(posRows)
	}
	if workers <= 1 {
		for _, ai := range posRows {
			rowJob(ai)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(posRows); i += workers {
					rowJob(posRows[i])
				}
			}(w)
		}
		wg.Wait()
	}
	grid.mirrorHermitian()
	// Products of two aligned channels carry 2^(2·emax); 1/np and the
	// squared input conditioning gain are the residual gain.
	s := grid.reduce(2*emax, surfaceGain(np, gain))
	cells := p.DSCFMults()
	stats := &scf.Stats{
		Blocks: np,
		// The canonical operation model matches float FAM: a full P-point
		// second FFT charged per cell even though only bin 0 is evaluated
		// (and the mirror halves the evaluated rows — a measured, not
		// modeled, saving).
		FFTMults:  np*fft.ComplexMults(p.K) + cells*fft.ComplexMults(np),
		DSCFMults: np*p.K + cells*np,
		Cycles: ch.fftCy +
			montium.MACKernelCycles(ch.macCy+int64(cells)*int64(np)) +
			montium.ReadDataCycles(int64(need)) +
			montium.AlignCycles(aligned+int64(cells)),
		Kernel: kern.Name(),
	}
	// The batch backend runs the whole pipeline on one modeled tile;
	// internal/tile schedules fill multi-tile breakdowns.
	stats.PerTile = []scf.TileCycles{{Tile: 0, Compute: stats.Cycles}}
	return s, stats, nil
}

var _ scf.Estimator = FAMQ15{}
