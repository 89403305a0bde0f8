package fam

import (
	"fmt"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// channelize computes the FAM front end: blocks hops of a
// k-point windowed FFT over x, hop samples apart, each channel
// downconverted to baseband with the absolute-time phase reference
// e^{-j2π·v·start/k}. The result is per-channel time series:
// out[v][n] is channel v of the hop starting at sample n·hop.
//
// win is the analysis window (nil for rectangular). The caller must
// guarantee len(x) >= k+(blocks-1)·hop.
//
// The per-hop loop allocates nothing: the plan and the downconversion
// table come from the process-wide fft cache and the FFT/window scratch
// buffers are pooled. Only the output backing array is allocated per call.
// (The SSCA runs the same unit-hop front end fused with its strip fold,
// in SSCA.Estimate, and never materialises the channel matrix.)
func channelize(x []complex128, k, hop, blocks int, win []float64) ([][]complex128, error) {
	if win != nil && len(win) != k {
		return nil, fmt.Errorf("fam: window length %d != channelizer size %d", len(win), k)
	}
	plan, err := fft.PlanFor(k)
	if err != nil {
		return nil, err
	}
	roots, err := fft.Roots(k)
	if err != nil {
		return nil, err
	}
	out := make([][]complex128, k)
	cells := make([]complex128, k*blocks)
	for v := range out {
		out[v], cells = cells[:blocks], cells[blocks:]
	}
	specBuf := fft.GetScratch(k)
	defer fft.PutScratch(specBuf)
	spec := *specBuf
	var winbuf []complex128
	if win != nil {
		winbufBuf := fft.GetScratch(k)
		defer fft.PutScratch(winbufBuf)
		winbuf = *winbufBuf
	}
	for n := 0; n < blocks; n++ {
		start := n * hop
		block := x[start : start+k]
		if win != nil {
			if err := fft.ApplyWindowInto(winbuf, block, win); err != nil {
				return nil, err
			}
			block = winbuf
		}
		if err := plan.Forward(spec, block); err != nil {
			return nil, err
		}
		// Downconvert with the absolute-time reference: the exponent
		// (start·v) mod k advances by start per channel, reduced with a
		// masked add (k is a power of two) — exact for large start·v.
		step := start & (k - 1)
		idx := 0
		for v := 0; v < k; v++ {
			out[v][n] = spec[v] * roots[idx]
			idx = (idx + step) & (k - 1)
		}
	}
	return out, nil
}

// famDefaults fills the zero fields of a FAM/SSCA parameter set: K=256,
// M=K/4, and the given default hop. Blocks is forced to 1 — both
// estimators derive their own smoothing length from the input.
func famDefaults(p scf.Params, defaultHop int) scf.Params {
	if p.K == 0 {
		p.K = 256
	}
	if p.M == 0 {
		p.M = p.K / 4
	}
	if p.Hop == 0 {
		p.Hop = defaultHop
		if p.Hop == 0 {
			p.Hop = p.K / 4
		}
	}
	p.Blocks = 1
	return p
}

// pow2Floor returns the largest power of two not exceeding n, or 0 when
// n < 1 (fft.Pow2Floor, aliased for the package's call sites).
func pow2Floor(n int) int { return fft.Pow2Floor(n) }

// famSmoothing returns the FAM smoothing length P of an n-sample input:
// the largest power of two not exceeding its whole channelizer hops, or 0
// below the two hops an estimate needs.
func famSmoothing(p scf.Params, n int) int {
	if n < p.K+p.Hop {
		return 0
	}
	return pow2Floor((n-p.K)/p.Hop + 1)
}

// sscaStripLen returns the SSCA strip length over the first hops unit-hop
// positions: the fixed N once that many have arrived, otherwise the
// largest power of two not below K — or 0 when a strip is not complete.
func sscaStripLen(k, nFixed, hops int) int {
	if nFixed != 0 {
		if hops >= nFixed {
			return nFixed
		}
		return 0
	}
	if n := pow2Floor(hops); n >= k {
		return n
	}
	return 0
}

// hopBound caps the channelizer hops a streaming accumulator processes:
// SSCA's fixed strip length N, or — once scf.WindowBounder declares the
// window — the smoothing prefix a full window's snapshot reads.
type hopBound struct {
	base   int // cap without a window: SSCA's fixed N, else 0 (none)
	limit  int // cap in force; 0 = none
	window int // declared window in samples; 0 = unbounded
}

// capHops returns a bound that stops at n hops (0 = none) until a window
// is declared.
func capHops(n int) hopBound { return hopBound{base: n, limit: n} }

// setWindow bounds the accumulator to an n-sample window whose full
// snapshot reads the first prefix hops. prefix 0 — a window too short for
// a snapshot — leaves it unbounded.
func (b *hopBound) setWindow(n, prefix int) {
	b.limit, b.window = b.base, 0
	if prefix > 0 {
		b.limit, b.window = prefix, n
	}
}

// reached reports whether hops has reached the cap.
func (b hopBound) reached(hops int) bool { return b.limit != 0 && hops >= b.limit }

// admit refuses a push of more samples after total that would overrun
// the declared window.
func (b hopBound) admit(name string, total, more int) error {
	if b.window != 0 && total+more > b.window {
		return fmt.Errorf("fam: %s accumulator is bounded to a %d-sample window; pushing %d after %d overruns it (Reset first)",
			name, b.window, more, total)
	}
	return nil
}

// needSamples formats the standard too-short error.
func needSamples(name string, need, have int) error {
	return fmt.Errorf("fam: %s needs >= %d samples, have %d", name, need, have)
}
