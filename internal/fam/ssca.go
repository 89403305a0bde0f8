package fam

import (
	"fmt"
	"math/cmplx"
	"runtime"
	"sync"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// SSCA is the Strip Spectral Correlation Analyzer estimator: a K-point
// channelizer sliding one sample at a time, each channel demodulate
// multiplied against the conjugate full-rate input, and one strip
// transform per channel. Channel k, strip bin q of the N-point strip FFT
// estimates the SCF at frequency f = k/(2K) - q/(2N) and cycle frequency
// α = k/K + q/N; surface cell (f, a) reads channel k = f+a at bin
// q = N·(a-f)/K.
//
// Every bin the grid reads is a multiple of N/K, and those K bins of an
// N-point FFT are exactly the K-point FFT of the product sequence folded
// modulo K (fold[r] = Σ_j prod[r+j·K]). So each channel's products are
// summed into a K-point fold as the channelizer slides, and each strip
// costs one K-point transform of its fold — never the full N-point one.
// Stats still bills the canonical N-point strips, so the modeled
// complexity is the textbook SSCA's.
//
// The strip length N must be a power of two and a multiple of K so that
// every grid cell lands exactly on a strip bin; both hold automatically
// for any power of two N >= K. The zero value estimates with the paper's
// geometry (K=256, M=64) and picks the largest N the input affords.
type SSCA struct {
	// Params configures the channelizer and grid. K is the channelizer
	// size, M the surface half-extent, Window the channelizer analysis
	// window. Hop and Blocks are ignored: the SSCA channelizer advances
	// one sample per hop and smooths over the whole strip.
	Params scf.Params
	// N is the strip length (power of two >= K). Zero selects the
	// largest power of two with N+K-1 <= len(x).
	N int
	// Workers bounds the goroutines computing strips concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial path. Strips
	// are independent and each is computed by exactly one worker, so
	// every worker count produces bit-identical surfaces.
	Workers int
}

// Name implements scf.Estimator.
func (SSCA) Name() string { return "ssca" }

// MinSamples returns the shortest input Estimate accepts for the
// configured geometry: a K-length strip needs 2K-1 samples.
func (e SSCA) MinSamples() int {
	p := famDefaults(e.Params, 1)
	n := e.N
	if n < p.K {
		n = p.K
	}
	return n + p.K - 1
}

// Estimate implements scf.Estimator.
func (e SSCA) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	p := famDefaults(e.Params, 1)
	p.Hop = 1
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := e.N
	if n == 0 {
		n = pow2Floor(len(x) - p.K + 1)
	} else if n < p.K {
		return nil, nil, fmt.Errorf("fam: SSCA strip length N=%d must be >= K=%d", n, p.K)
	}
	if n < p.K {
		return nil, nil, needSamples("SSCA", 2*p.K-1, len(x))
	}
	if !fft.IsPow2(n) {
		return nil, nil, fmt.Errorf("fam: SSCA strip length N=%d must be a power of two", n)
	}
	if len(x) < n+p.K-1 {
		return nil, nil, needSamples("SSCA", n+p.K-1, len(x))
	}
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, nil, err
		}
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, nil, err
	}
	roots, err := fft.Roots(p.K)
	if err != nil {
		return nil, nil, err
	}
	rowAlphas, needed := sscaLayout(p)
	k, nn := p.K, len(needed)
	foldBuf := fft.GetScratch(k * nn)
	defer fft.PutScratch(foldBuf)
	fold := *foldBuf
	clear(fold)
	specBuf := fft.GetScratch(k)
	defer fft.PutScratch(specBuf)
	spec := *specBuf
	var winbuf []complex128
	if win != nil {
		winBuf := fft.GetScratch(k)
		defer fft.PutScratch(winBuf)
		winbuf = *winBuf
	}
	// The unit-hop channelizer fused with the fold: hop h is windowed and
	// transformed, each needed channel v is downconverted with the
	// absolute-time reference e^{-j2π·v·h/K} and multiplied by the
	// conjugate input at the window centre, and the product lands in fold
	// row h mod K. The centre alignment keeps the kernel's group-delay
	// phase e^{j2πδ(K-1)/2} constant along each strip bin's diagonal
	// instead of rotating in-bin contributions into cancellation;
	// sscaSurface divides the residual per-bin constant out.
	centre, mask := k/2, k-1
	for h := 0; h < n; h++ {
		block := x[h : h+k]
		if win != nil {
			if err := fft.ApplyWindowInto(winbuf, block, win); err != nil {
				return nil, nil, err
			}
			block = winbuf
		}
		if err := plan.Forward(spec, block); err != nil {
			return nil, nil, err
		}
		foldHop(fold[(h&mask)*nn:], spec, roots, needed, h, cmplx.Conj(x[h+centre]))
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return sscaSurface(p, rowAlphas, needed, fold, fold, n, workers)
}

// foldHop adds unit hop h's products to its fold row: channel needed[i],
// downconverted from spec with the absolute-time reference
// e^{-j2π·v·h/K} (roots is the K-point table), times the conjugate
// centre sample xc. Batch and streaming SSCA both fold through here, so
// their products round identically.
func foldHop(row, spec, roots []complex128, needed []int, h int, xc complex128) {
	row = row[:len(needed)]
	mask := len(roots) - 1
	for i, v := range needed {
		row[i] += spec[v] * roots[(h*v)&mask] * xc
	}
}

// sscaLayout returns the surface rows an SSCA parameter set holds — all
// of [-m, m], or the candidate set (±a plus 0) under alpha pruning — and
// the channels those rows address, the residues f+a mod K, in first-use
// order. SSCA computes each row directly (its strips are not
// Hermitian-mirrorable), so pruning keeps both signs explicitly, and only
// strips whose cycle frequencies meet a held row are ever computed.
func sscaLayout(p scf.Params) (rowAlphas, needed []int) {
	m := p.M - 1
	rowAlphas = p.SurfaceAlphas()
	if rowAlphas == nil {
		rowAlphas = make([]int, 2*m+1)
		for i := range rowAlphas {
			rowAlphas[i] = i - m
		}
	}
	needed = make([]int, 0, 4*m+1)
	seen := make([]bool, p.K)
	for _, a := range rowAlphas {
		for f := -m; f <= m; f++ {
			if k := fft.BinIndex(p.K, f+a); !seen[k] {
				seen[k] = true
				needed = append(needed, k)
			}
		}
	}
	return rowAlphas, needed
}

// sscaSurface finishes an SSCA estimate over n strip positions from the
// folded products: fold holds K rows of len(needed) cells, row r column i
// being Σ_j prod_i[r+j·K] for channel needed[i]. Each column's K-point
// FFT is bins (N/K)·p of that channel's N-point strip, p = 0..K-1; the
// per-bin centre-shift phase is divided out with the K-point roots table
// (Roots(N)[(N/K)·j] and Roots(K)[j] are the same float64). out receives
// the strip bins in fold's layout and may be fold itself. Strips fan out
// over workers, each computed by exactly one, so every worker count gives
// bit-identical surfaces.
func sscaSurface(p scf.Params, rowAlphas, needed []int, fold, out []complex128, n, workers int) (*scf.Surface, *scf.Stats, error) {
	k, nn := p.K, len(needed)
	plan, err := fft.PlanFor(k)
	if err != nil {
		return nil, nil, err
	}
	roots, err := fft.Roots(k)
	if err != nil {
		return nil, nil, err
	}
	centre := k / 2
	// strip transforms column i; buf holds 2K scratch cells. The FFT
	// runs out of place so its bit-reversal folds into the input gather.
	strip := func(i int, buf []complex128) error {
		col, u := buf[:k], buf[k:]
		for r := range col {
			col[r] = fold[r*nn+i]
		}
		if err := plan.Forward(u, col); err != nil {
			return err
		}
		derotate(u, roots, centre)
		for r, v := range u {
			out[r*nn+i] = v
		}
		return nil
	}
	if workers > nn {
		workers = nn
	}
	if workers <= 1 {
		buf := fft.GetScratch(2 * k)
		defer fft.PutScratch(buf)
		for i := range needed {
			if err := strip(i, *buf); err != nil {
				return nil, nil, err
			}
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := fft.GetScratch(2 * k)
				defer fft.PutScratch(buf)
				for i := w; i < nn; i += workers {
					if err := strip(i, *buf); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
	}
	col := make([]int, k) // channel -> column of out
	for i, v := range needed {
		col[v] = i
	}
	s := scf.NewSurfaceFor(p)
	inv := complex(1/float64(n), 0)
	m := p.M - 1
	for i, a := range rowAlphas {
		row := s.Data[i]
		for f := -m; f <= m; f++ {
			q := fft.BinIndex(k, a-f)
			row[f+m] = out[q*nn+col[fft.BinIndex(k, f+a)]] * inv
		}
	}
	stats := &scf.Stats{
		Blocks:    n,
		FFTMults:  n*fft.ComplexMults(k) + nn*fft.ComplexMults(n),
		DSCFMults: n*k + nn*n,
	}
	return s, stats, nil
}

// derotate divides the per-bin centre-shift phase e^{-j2πq·centre/n} out
// of a strip transform by indexing the cached roots table. The exponent
// (q·centre) mod n advances by centre per bin and n (= len(u) = len(roots))
// is a power of two, so the reduction is a masked add — no per-bin
// multiply, modulo or table-index recomputation, and no allocation. The
// hoisted indexing reads exactly the root the naive roots[(q·centre)%n]
// lookup would, so the derotated strips are bit-identical to it (guarded
// by TestSSCADerotateGolden).
func derotate(u, roots []complex128, centre int) {
	mask := len(roots) - 1
	idx := 0
	for q := range u {
		u[q] *= roots[idx]
		idx = (idx + centre) & mask
	}
}

// WithAlphaCandidates implements scf.CandidateEstimator.
func (e SSCA) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	if len(alphas) == 0 {
		return e, nil
	}
	p := famDefaults(e.Params, 1)
	p.AlphaCandidates = append([]int(nil), alphas...)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e.Params = p
	return e, nil
}

var _ scf.Estimator = SSCA{}
