package fam

import (
	"math/cmplx"
	"runtime"
	"sync"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// FAM is the FFT Accumulation Method estimator: a K-point channelizer
// hopping by Hop samples (default K/4) with an analysis window, complex
// downconversion of every channel, and a P-point second FFT across the
// channelizer hops for every surface cell's channel-pair product
// sequence. Bin 0 of the second FFT — the cyclic component at exactly
// the cell's cycle frequency α = 2a/K — fills the cell.
//
// P, the smoothing length, is the largest power of two not exceeding the
// number of whole hops the input affords: P = pow2floor((len(x)-K)/Hop+1).
// The zero value estimates with the paper's geometry (K=256, M=64,
// Hop=64, rectangular window).
type FAM struct {
	// Params configures the channelizer and grid. K is the channelizer
	// size, M the surface half-extent, Hop the channelizer advance
	// (default K/4 — the classical 75% overlap), Window the analysis
	// window (a Hamming window is the conventional FAM choice; the
	// default is rectangular for comparability with the direct method).
	// Blocks is ignored: the smoothing length is derived from the input.
	Params scf.Params
	// Workers bounds the goroutines evaluating surface rows concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial path. Rows are
	// partitioned across workers, each cell written exactly once, so
	// every worker count produces bit-identical surfaces.
	Workers int
}

// Name implements scf.Estimator.
func (FAM) Name() string { return "fam" }

// MinSamples returns the shortest input Estimate accepts for the
// configured geometry: two channelizer hops.
func (e FAM) MinSamples() int {
	p := famDefaults(e.Params, 0)
	return p.K + p.Hop
}

// Estimate implements scf.Estimator.
func (e FAM) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	p := famDefaults(e.Params, 0)
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	np := famSmoothing(p, len(x))
	if np == 0 {
		return nil, nil, needSamples("FAM", p.K+p.Hop, len(x))
	}
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, nil, err
		}
	}
	ch, err := channelize(x, p.K, p.Hop, np, win)
	if err != nil {
		return nil, nil, err
	}
	// The a >= 0 rows to evaluate: the full half-plane, or only the
	// candidate rows when alpha pruning is on (the mirrors come from the
	// final Hermitian pass either way, so pruning skips entire
	// conjugate-product rows without touching the per-cell arithmetic).
	m := p.M - 1
	rowSet := p.CandidateRows()
	if rowSet == nil {
		rowSet = make([]int, m+1)
		for a := range rowSet {
			rowSet[a] = a
		}
	}
	// Hoist the conjugation out of the α/f loops: every cell (f, a) reads
	// conj of channel f-a, so conjugating each addressed channel once
	// replaces (2M-1)²·P per-cell conjugations with one pass per channel.
	// Only the residues f-a the evaluated rows span are conjugated (for
	// the full default M = K/4 geometry that is nearly all of them, but
	// small-M grids and pruned candidate sets touch only a sliver).
	conjSet := make([]int, 0, 4*m+1)
	seen := make([]bool, p.K)
	for _, a := range rowSet {
		for f := -m; f <= m; f++ {
			if k := fft.BinIndex(p.K, f-a); !seen[k] {
				seen[k] = true
				conjSet = append(conjSet, k)
			}
		}
	}
	chc := make([][]complex128, p.K)
	ccells := make([]complex128, len(conjSet)*np)
	for _, k := range conjSet {
		chc[k], ccells = ccells[:np], ccells[np:]
		for n, c := range ch[k] {
			chc[k][n] = cmplx.Conj(c)
		}
	}
	s := scf.NewSurfaceFor(p)
	// The FAM surface is exactly Hermitian in α: the cell (f, -a) sums
	// x_{f-a}(n)·conj(x_{f+a}(n)) — the termwise conjugate of cell (f, a)
	// in the same order — so only the a >= 0 rows are evaluated and the
	// a < 0 rows mirrored by conjugation, bit-identical to evaluating
	// them directly (conjugation is exact in floating point).
	rows := len(rowSet)
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		for _, a := range rowSet {
			famRow(s.Row(a), ch, chc, p.K, a, m, np)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < rows; i += workers {
					a := rowSet[i]
					famRow(s.Row(a), ch, chc, p.K, a, m, np)
				}
			}(w)
		}
		wg.Wait()
	}
	s.MirrorHermitian()
	// Stats keep charging the canonical per-cell P-point second FFT —
	// the operation-count model of the paper's complexity comparison —
	// even though the implementation evaluates only its bin 0 as an O(P)
	// dot product (model vs measured; see famRow and the README). With
	// alpha pruning the count covers only the held rows.
	cells := p.DSCFMults()
	stats := &scf.Stats{
		Blocks:    np,
		FFTMults:  np*fft.ComplexMults(p.K) + cells*fft.ComplexMults(np),
		DSCFMults: np*p.K + cells*np,
	}
	return s, stats, nil
}

// famRow fills one cycle-frequency row of the surface: row[f+m] for
// f in [-m, m] at offset a. Each cell is bin 0 of the P-point second FFT
// of the channel-pair product sequence, which is algebraically the plain
// sum Σ_n x_{f+a}(n)·conj(x_{f-a}(n)) — an O(P) complex dot product in
// place of the O(P·logP) per-cell FFT (only bin 0 lands on the coarse
// surface grid: with hop K/4 the neighbouring bins refine α by half-row
// steps, falling between grid rows rather than filling them). The loop
// allocates nothing.
func famRow(row []complex128, ch, chc [][]complex128, k, a, m, np int) {
	inv := complex(1/float64(np), 0)
	// K is a power of two (Params.Validate), so the f±a bin wrap-around is
	// a masked increment instead of a per-cell modulo.
	mask := k - 1
	pi := (a - m) & mask
	qi := (-a - m) & mask
	for f := -m; f <= m; f++ {
		cc := chc[qi][:np]
		// Slicing cp to len(cc) lets the compiler drop the bounds check
		// on cc inside the loop.
		cp := ch[pi][:len(cc)]
		// Two interleaved accumulators: P is a power of two (always
		// even here), and the split halves the floating-point add
		// dependency chain the loop is otherwise latency-bound on.
		var s0, s1 complex128
		for n := 1; n < len(cp); n += 2 {
			s0 += cp[n-1] * cc[n-1]
			s1 += cp[n] * cc[n]
		}
		row[f+m] = (s0 + s1) * inv
		pi = (pi + 1) & mask
		qi = (qi + 1) & mask
	}
}

// WithAlphaCandidates implements scf.CandidateEstimator.
func (e FAM) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	if len(alphas) == 0 {
		return e, nil
	}
	p := famDefaults(e.Params, 0)
	p.AlphaCandidates = append([]int(nil), alphas...)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e.Params = p
	return e, nil
}

var _ scf.Estimator = FAM{}
