// White-box performance-invariant tests for the estimator hot paths:
// golden cross-checks that the optimized FAM/SSCA pipelines match the
// pre-optimization formulations, bit-identity between serial and parallel
// evaluation, and AllocsPerRun regressions asserting the per-hop and
// per-cell loops stay allocation-free.
package fam

import (
	"math"
	"math/cmplx"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// goldenBand is a seeded BPSK-in-noise band: the signal class every
// cross-check in this package exercises.
func goldenBand(n int, seed uint64) []complex128 {
	rng := sig.NewRand(seed)
	src := sig.Mix{Sources: []sig.Source{
		&sig.BPSK{Amp: 1, Carrier: 8.0 / 64, SymbolLen: 8, Rng: rng},
		&sig.WGN{Sigma: 0.3, Rng: rng},
	}}
	return sig.Samples(&src, n)
}

// famReference evaluates FAM exactly as the pre-optimization code did:
// a full P-point second FFT per surface cell, reading bin 0, every row
// evaluated directly (no Hermitian mirroring).
func famReference(t *testing.T, x []complex128, p scf.Params) *scf.Surface {
	t.Helper()
	p = famDefaults(p, 0)
	hops := (len(x)-p.K)/p.Hop + 1
	np := pow2Floor(hops)
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := channelize(x, p.K, p.Hop, np, win)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := fft.NewPlan(np)
	if err != nil {
		t.Fatal(err)
	}
	s := scf.NewSurface(p.M)
	prod := make([]complex128, np)
	spec2 := make([]complex128, np)
	inv := complex(1/float64(np), 0)
	m := p.M - 1
	for a := -m; a <= m; a++ {
		for f := -m; f <= m; f++ {
			cp := ch[fft.BinIndex(p.K, f+a)]
			cm := ch[fft.BinIndex(p.K, f-a)]
			for n := 0; n < np; n++ {
				prod[n] = cp[n] * cmplx.Conj(cm[n])
			}
			if err := plan2.Forward(spec2, prod); err != nil {
				t.Fatal(err)
			}
			s.Add(f, a, spec2[0]*inv)
		}
	}
	return s
}

// sscaReference evaluates SSCA exactly as the pre-optimization code did:
// lazy per-strip allocation, per-sample conjugation of the shifted input,
// and cmplx.Exp derotation.
func sscaReference(t *testing.T, x []complex128, p scf.Params, n int) *scf.Surface {
	t.Helper()
	p = famDefaults(p, 1)
	p.Hop = 1
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := channelize(x, p.K, 1, n, win)
	if err != nil {
		t.Fatal(err)
	}
	planN, err := fft.NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	strips := make([][]complex128, p.K)
	prod := make([]complex128, n)
	centre := p.K / 2
	derot := make([]complex128, n)
	for q := range derot {
		ang := -2 * math.Pi * float64((q*centre)%n) / float64(n)
		derot[q] = cmplx.Exp(complex(0, ang))
	}
	stripOf := func(k int) []complex128 {
		if strips[k] != nil {
			return strips[k]
		}
		cs := ch[k]
		for m := 0; m < n; m++ {
			prod[m] = cs[m] * cmplx.Conj(x[m+centre])
		}
		u := make([]complex128, n)
		if err := planN.Forward(u, prod); err != nil {
			t.Fatal(err)
		}
		for q := range u {
			u[q] *= derot[q]
		}
		strips[k] = u
		return u
	}
	s := scf.NewSurface(p.M)
	inv := complex(1/float64(n), 0)
	m := p.M - 1
	for a := -m; a <= m; a++ {
		for f := -m; f <= m; f++ {
			u := stripOf(fft.BinIndex(p.K, f+a))
			q := fft.BinIndex(n, n/p.K*(a-f))
			s.Add(f, a, u[q]*inv)
		}
	}
	return s
}

// surfacePeak returns the largest cell magnitude, used to scale golden
// tolerances.
func surfacePeak(s *scf.Surface) float64 {
	_, _, mag := s.MaxFeature(false)
	return mag
}

func TestFAMGoldenMatchesPreOptimization(t *testing.T) {
	const n = 2048
	x := goldenBand(n, 7)
	for _, p := range []scf.Params{
		{K: 64, M: 16},
		{K: 64, M: 16, Window: fft.Hamming},
		{K: 128, M: 32, Hop: 32},
	} {
		want := famReference(t, x, p)
		got, _, err := FAM{Params: p, Workers: 1}.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		// The optimized path evaluates bin 0 as a dot product instead of
		// a full second FFT (different floating-point summation order),
		// so agreement is to rounding, scaled by the surface peak.
		tol := 1e-12 * (1 + surfacePeak(want))
		if d := scf.MaxAbsDiff(got, want); d > tol {
			t.Errorf("K=%d M=%d: optimized FAM differs from pre-optimization surface by %g (tol %g)", p.K, p.M, d, tol)
		}
	}
}

// TestSSCAGoldenMatchesPreOptimization: the folded K-point strips match
// the pre-optimization N-point strips to rounding, across explicit and
// derived strip lengths (N = K up to N = 1024), the paper geometry, a
// Hamming window and an alpha-pruned row set (whose held rows must match
// the reference's).
func TestSSCAGoldenMatchesPreOptimization(t *testing.T) {
	const n = 2048
	x := goldenBand(n, 8)
	for _, tc := range []struct {
		p scf.Params
		n int // explicit strip length; 0 derives it from the input
	}{
		{scf.Params{K: 64, M: 16}, 1024},
		{scf.Params{K: 64, M: 16, Window: fft.Hamming}, 1024},
		{scf.Params{K: 64, M: 16}, 64},
		{scf.Params{K: 256, M: 64}, 0},
		{scf.Params{K: 256, M: 64}, 256},
		{scf.Params{K: 256, M: 64, Window: fft.Hamming}, 1024},
		{scf.Params{K: 64, M: 16, AlphaCandidates: []int{3, 8, 10}}, 1024},
		{scf.Params{K: 256, M: 64, AlphaCandidates: []int{0, 16, 40}, Window: fft.Hamming}, 0},
	} {
		strip := tc.n
		if strip == 0 {
			strip = pow2Floor(n - tc.p.K + 1)
		}
		want := sscaReference(t, x, tc.p, strip)
		got, _, err := SSCA{Params: tc.p, N: tc.n, Workers: 1}.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-12 * (1 + surfacePeak(want))
		d := 0.0
		for _, a := range got.AlphaValues() {
			for f, v := range got.Row(a) {
				d = math.Max(d, cmplx.Abs(v-want.Row(a)[f]))
			}
		}
		if got.Pruned() != (tc.p.AlphaCandidates != nil) {
			t.Errorf("%+v: pruned surface = %v", tc.p, got.Pruned())
		}
		if d > tol {
			t.Errorf("%+v N=%d: optimized SSCA differs from pre-optimization surface by %g (tol %g)", tc.p, strip, d, tol)
		}
	}
}

func TestFAMParallelBitIdenticalToSerial(t *testing.T) {
	x := goldenBand(4096, 9)
	p := scf.Params{K: 64, M: 16}
	serial, _, err := FAM{Params: p, Workers: 1}.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, _, err := FAM{Params: p, Workers: workers}.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Data {
			for j := range serial.Data[i] {
				if par.Data[i][j] != serial.Data[i][j] {
					t.Fatalf("workers=%d: cell [%d][%d] %v != serial %v", workers, i, j, par.Data[i][j], serial.Data[i][j])
				}
			}
		}
	}
}

func TestSSCAParallelBitIdenticalToSerial(t *testing.T) {
	x := goldenBand(2048, 10)
	p := scf.Params{K: 64, M: 16}
	serial, _, err := SSCA{Params: p, Workers: 1}.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		par, _, err := SSCA{Params: p, Workers: workers}.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Data {
			for j := range serial.Data[i] {
				if par.Data[i][j] != serial.Data[i][j] {
					t.Fatalf("workers=%d: cell [%d][%d] %v != serial %v", workers, i, j, par.Data[i][j], serial.Data[i][j])
				}
			}
		}
	}
}

// The FAM surface must be exactly Hermitian in α — the property the
// mirrored evaluation relies on.
func TestFAMSurfaceExactlyHermitian(t *testing.T) {
	x := goldenBand(2048, 11)
	s, _, err := FAM{Params: scf.Params{K: 64, M: 16}}.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	if e := s.HermitianError(); e != 0 {
		t.Fatalf("FAM Hermitian error %g, want exact 0", e)
	}
}

// TestChannelizeSteadyStateAllocs asserts the channelizer's per-hop loop
// allocates nothing: total allocations must not grow with the number of
// hops (only the output backing array and its headers are allocated per
// call). A slack of 2 absorbs sync.Pool nondeterminism — the pool may
// drop its spec and window buffers at any GC (and randomly under -race),
// costing at most one reallocation each, while a per-hop leak would add
// ~60 allocations between the two measurements.
func TestChannelizeSteadyStateAllocs(t *testing.T) {
	x := goldenBand(4096, 12)
	win, err := fft.Window(fft.Hamming, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{nil, win} {
		allocs := func(blocks int) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := channelize(x, 64, 16, blocks, w); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := allocs(4), allocs(64)
		if many > few+2 {
			t.Errorf("windowed=%v: channelize allocations grow with hops: %v at 4 hops, %v at 64", w != nil, few, many)
		}
	}
}

// TestFAMRowAllocs asserts the per-cell evaluation (one whole surface row
// of bin-0 dot products) performs zero allocations.
func TestFAMRowAllocs(t *testing.T) {
	const k, m, np = 64, 16, 32
	x := goldenBand(64+31*16, 13)
	ch, err := channelize(x, k, 16, np, nil)
	if err != nil {
		t.Fatal(err)
	}
	chc := make([][]complex128, k)
	for v := range chc {
		chc[v] = make([]complex128, np)
		for n, c := range ch[v] {
			chc[v][n] = cmplx.Conj(c)
		}
	}
	row := make([]complex128, 2*m+1)
	if a := testing.AllocsPerRun(20, func() {
		famRow(row, ch, chc, k, 3, m, np)
	}); a != 0 {
		t.Errorf("famRow allocates %v times per row, want 0", a)
	}
}
