package fam

import (
	"fmt"
	"math/cmplx"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// This file implements scf.Accumulator for the FAM and the SSCA: the
// incremental twins of the two batch estimators, bit-identical to
// Estimate on the concatenated stream (golden equivalence tests in
// accumulator_test.go).
//
// The structural obstacle both share is that their smoothing length is a
// function of the total input length — FAM averages over the largest
// power of two of channelizer hops, the SSCA strip FFT spans the largest
// power of two of samples — so a naive running sum over *all* arrived
// hops would diverge from the batch result whenever the hop count is not
// a power of two. Both accumulators keep running sums in arrival order
// and *checkpoint* them every time the hop count reaches a power of two;
// Snapshot reads the latest checkpoint, which by construction is the sum
// over exactly the batch prefix, so the state is fixed-size however long
// the stream:
//
//   - FAM sums each cell's products over the first pow2floor(hops) hops.
//   - The SSCA folds each needed channel's conjugate products modulo K —
//     all a strip transform needs (see SSCA) — checkpointing at powers of
//     two >= K, and Snapshot runs the K-point strip transforms over the
//     checkpoint.
//
// Both also implement scf.WindowBounder. In windowed serving the stream
// engine resets an accumulator every n samples, so no snapshot reads
// past the prefix a full n-sample window smooths: the FAM folds only its
// first pow2floor((n-K)/Hop+1) hops, the SSCA folds only the first
// pow2floor(n-K+1) positions, and the rest of each window is counted,
// not processed. A cumulative stream has no such bound — the prefix
// keeps growing with it — so every arriving hop is processed.

// NewAccumulator implements scf.StreamingEstimator. Workers is ignored:
// accumulators process hops in arrival order on the caller's goroutine
// (streaming parallelism lives across channels, in the stream engine's
// worker pool).
func (e FAM) NewAccumulator() (scf.Accumulator, error) {
	p := famDefaults(e.Params, 0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, err
		}
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, err
	}
	roots, err := fft.Roots(p.K)
	if err != nil {
		return nil, err
	}
	a := &famAccumulator{p: p, plan: plan, roots: roots, win: win}
	a.init()
	return a, nil
}

var _ scf.StreamingEstimator = FAM{}

// famAccumulator is the incremental FAM. Each completed channelizer hop
// is windowed, FFT'd and downconverted exactly as channelize does, then
// folded into per-cell running sums. The sums are split by hop parity
// (acc0 for even hops, acc1 for odd) because famRow sums each cell with
// two interleaved accumulators — keeping the same split keeps the
// floating-point addition order identical, hence bit-identical surfaces.
// Only the a >= 0 rows are accumulated; Snapshot mirrors the rest, as the
// batch path does.
type famAccumulator struct {
	p     scf.Params
	plan  *fft.Plan
	roots []complex128
	win   []float64

	// rowSet lists the a >= 0 rows the accumulator maintains: 0..M-1, or
	// only the candidate rows under alpha pruning.
	rowSet []int
	// acc0/acc1 are the parity-split per-cell sums, indexed
	// [i][f+M-1] with i positional in rowSet; ck is acc0+acc1 at the last
	// power-of-two hop count ckHops — the sum famRow forms from its two
	// accumulators, so Snapshot only normalises it.
	acc0, acc1, ck [][]complex128
	hops           int
	ckHops         int
	// bound stops the fold at the smoothing prefix of a declared window.
	bound hopBound

	buf      []complex128 // unprocessed stream tail; buf[0] is sample bufStart
	bufStart int
	total    int

	spec, chn, chc, winbuf []complex128 // private per-hop scratch
}

func (f *famAccumulator) init() {
	m := f.p.M - 1
	f.rowSet = f.p.CandidateRows()
	if f.rowSet == nil {
		f.rowSet = make([]int, m+1)
		for a := range f.rowSet {
			f.rowSet[a] = a
		}
	}
	rows, cols := len(f.rowSet), 2*m+1
	grid := func() [][]complex128 {
		data := make([][]complex128, rows)
		cells := make([]complex128, rows*cols)
		for i := range data {
			data[i], cells = cells[:cols], cells[cols:]
		}
		return data
	}
	f.acc0, f.acc1, f.ck = grid(), grid(), grid()
	f.spec = make([]complex128, f.p.K)
	f.chn = make([]complex128, f.p.K)
	f.chc = make([]complex128, f.p.K)
}

// Name implements scf.Accumulator.
func (f *famAccumulator) Name() string { return "fam" }

// Samples implements scf.Accumulator.
func (f *famAccumulator) Samples() int { return f.total }

// Ready implements scf.Accumulator: the batch path needs at least two
// hops of smoothing.
func (f *famAccumulator) Ready() bool { return f.ckHops >= 2 }

// BoundWindow implements scf.WindowBounder: a snapshot within an
// n-sample window reads at most the first famSmoothing(n) hops, so the
// accumulator folds only those and merely counts the window's remaining
// samples.
func (f *famAccumulator) BoundWindow(n int) {
	f.bound.setWindow(n, famSmoothing(f.p, n))
}

// Push implements scf.Accumulator.
func (f *famAccumulator) Push(samples []complex128) error {
	if err := f.bound.admit("FAM", f.total, len(samples)); err != nil {
		return err
	}
	f.total += len(samples)
	k, hop := f.p.K, f.p.Hop
	for {
		if f.bound.reached(f.hops) {
			// Every hop the window's snapshot reads is folded.
			f.buf, f.bufStart = f.buf[:0], f.total
			return nil
		}
		start := f.hops * hop
		if f.bufStart+len(f.buf) < start+k {
			// Keep only what the next hop reads, then take at most K more
			// samples: the buffer stays under 2K samples whatever the
			// chunk size, and each sample is compacted O(1) times.
			f.buf, f.bufStart = scf.TrimBefore(f.buf, f.bufStart, start)
			if len(samples) == 0 {
				return nil
			}
			n := min(len(samples), k)
			f.buf = append(f.buf, samples[:n]...)
			samples = samples[n:]
			continue
		}
		block := f.buf[start-f.bufStart : start-f.bufStart+k]
		if f.win != nil {
			if f.winbuf == nil {
				f.winbuf = make([]complex128, k)
			}
			if err := fft.ApplyWindowInto(f.winbuf, block, f.win); err != nil {
				return err
			}
			block = f.winbuf
		}
		if err := f.plan.Forward(f.spec, block); err != nil {
			return err
		}
		// Downconvert with the absolute-time reference, as channelize
		// does: exponent (start·v) mod k advances by start per channel.
		step := start & (k - 1)
		idx := 0
		for v := 0; v < k; v++ {
			f.chn[v] = f.spec[v] * f.roots[idx]
			f.chc[v] = cmplx.Conj(f.chn[v])
			idx = (idx + step) & (k - 1)
		}
		// Fold the hop into the parity accumulator famRow would have
		// used: cell (f, a) gains x_{f+a}(n)·conj(x_{f-a}(n)).
		tgt := f.acc0
		if f.hops&1 == 1 {
			tgt = f.acc1
		}
		m := f.p.M - 1
		mask := k - 1
		for i, a := range f.rowSet {
			foldRow(tgt[i], f.chn, f.chc, (a-m)&mask, (-a-m)&mask)
		}
		f.hops++
		if f.hops&(f.hops-1) == 0 {
			// Power-of-two hop count: checkpoint the prefix sums.
			for i, ck := range f.ck {
				c0, c1 := f.acc0[i][:len(ck)], f.acc1[i][:len(ck)]
				for fi := range ck {
					ck[fi] = c0[fi] + c1[fi]
				}
			}
			f.ckHops = f.hops
		}
	}
}

// foldRow adds chn[pi+j]·chc[qi+j] to row[j] for every j, the bin
// indices taken mod len(chn) (a power of two). It cuts the row into at
// most three contiguous segments where either index wraps, so the inner
// loop runs over re-sliced operands with neither masks nor bounds checks;
// each cell still gains exactly one product per hop.
func foldRow(row, chn, chc []complex128, pi, qi int) {
	mask := len(chn) - 1
	for len(row) > 0 {
		n := min(len(row), len(chn)-pi, len(chc)-qi)
		dst, ps, qs := row[:n], chn[pi:][:n], chc[qi:][:n]
		for j := range dst {
			dst[j] += ps[j] * qs[j]
		}
		row = row[n:]
		pi = (pi + n) & mask
		qi = (qi + n) & mask
	}
}

// Snapshot implements scf.Accumulator. It reads the checkpoint at
// P = pow2floor(hops) — the sums over exactly the hops the batch path
// would smooth — normalises each cell by 1/P as famRow does, and mirrors
// the a < 0 rows.
func (f *famAccumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	if f.ckHops < 2 {
		return nil, nil, needSamples("FAM", f.p.K+f.p.Hop, f.total)
	}
	np := f.ckHops
	inv := complex(1/float64(np), 0)
	s := scf.NewSurfaceFor(f.p)
	for i, a := range f.rowSet {
		row, ck := s.Row(a), f.ck[i]
		for fi := range row {
			row[fi] = ck[fi] * inv
		}
	}
	s.MirrorHermitian()
	cells := f.p.DSCFMults()
	stats := &scf.Stats{
		Blocks:    np,
		FFTMults:  np*fft.ComplexMults(f.p.K) + cells*fft.ComplexMults(np),
		DSCFMults: np*f.p.K + cells*np,
	}
	return s, stats, nil
}

// Reset implements scf.Accumulator.
func (f *famAccumulator) Reset() {
	for _, g := range [][][]complex128{f.acc0, f.acc1, f.ck} {
		for _, row := range g {
			for i := range row {
				row[i] = 0
			}
		}
	}
	f.hops, f.ckHops = 0, 0
	f.buf = f.buf[:0]
	f.bufStart = 0
	f.total = 0
}

// NewAccumulator implements scf.StreamingEstimator. With N set the
// accumulator stops folding at N hops and every snapshot transforms
// exactly those; with N zero each snapshot spans the largest power-of-two
// prefix of the stream. Either way the state is a K×channels fold and its
// checkpoint (about 2 MB at K=256, M=64), whatever the stream length.
// Workers is ignored, as for FAM.
func (e SSCA) NewAccumulator() (scf.Accumulator, error) {
	p := famDefaults(e.Params, 1)
	p.Hop = 1
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if e.N != 0 {
		if e.N < p.K {
			return nil, needSamples("SSCA", 2*p.K-1, e.N)
		}
		if !fft.IsPow2(e.N) {
			return nil, fmt.Errorf("fam: SSCA strip length N=%d must be a power of two", e.N)
		}
	}
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, err
		}
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, err
	}
	roots, err := fft.Roots(p.K)
	if err != nil {
		return nil, err
	}
	a := &sscaAccumulator{p: p, nFixed: e.N, plan: plan, roots: roots, win: win, bound: capHops(e.N)}
	a.rowAlphas, a.needed = sscaLayout(p)
	a.fold = make([]complex128, p.K*len(a.needed))
	a.ck = make([]complex128, len(a.fold))
	a.spec = make([]complex128, p.K)
	return a, nil
}

var _ scf.StreamingEstimator = SSCA{}

// sscaAccumulator is the incremental SSCA. Every arriving sample
// completes one more position of the unit-hop channelizer; the
// accumulator runs the K-point FFT, downconverts, multiplies each
// addressed channel by the conjugate centre-aligned input sample — the
// product batch SSCA.Estimate forms — and adds it into fold row
// hops mod K, in the same hop order as the batch fold. At each
// power-of-two hop count >= K the fold is copied to the checkpoint, which
// by construction is the batch fold of exactly that prefix; Snapshot
// finishes it with the batch strip stage, so the surfaces are
// bit-identical.
type sscaAccumulator struct {
	p      scf.Params
	nFixed int
	plan   *fft.Plan
	roots  []complex128
	win    []float64

	rowAlphas []int // surface rows to fill: all of [-m, m], or the candidate set
	needed    []int // addressed channel indices, batch order
	// fold is the running K×len(needed) fold of every hop (row r holds
	// the products of hops r, r+K, ...); ck is fold as it stood at the
	// last power-of-two hop count >= K — stripLen's, by construction.
	fold, ck []complex128
	hops     int
	bound    hopBound // folding stops at the fixed N or a declared window's strip length

	buf      []complex128 // unprocessed stream tail; buf[0] is sample bufStart
	bufStart int
	total    int

	spec, winbuf []complex128
}

// BoundWindow implements scf.WindowBounder: a snapshot within an
// n-sample window spans at most the strip length n-K+1 positions afford,
// so the fold stops there.
func (s *sscaAccumulator) BoundWindow(n int) {
	s.bound.setWindow(n, sscaStripLen(s.p.K, s.nFixed, n-s.p.K+1))
}

// Name implements scf.Accumulator.
func (s *sscaAccumulator) Name() string { return "ssca" }

// Samples implements scf.Accumulator.
func (s *sscaAccumulator) Samples() int { return s.total }

// stripLen returns the strip length a snapshot would use now, or 0 when
// too few hops have arrived.
func (s *sscaAccumulator) stripLen() int { return sscaStripLen(s.p.K, s.nFixed, s.hops) }

// Ready implements scf.Accumulator.
func (s *sscaAccumulator) Ready() bool { return s.stripLen() != 0 }

// Push implements scf.Accumulator.
func (s *sscaAccumulator) Push(samples []complex128) error {
	if err := s.bound.admit("SSCA", s.total, len(samples)); err != nil {
		return err
	}
	s.total += len(samples)
	k, nn := s.p.K, len(s.needed)
	centre, mask := k/2, k-1
	for {
		if s.bound.reached(s.hops) {
			// Every position a snapshot spans is folded; later samples
			// are only counted.
			s.buf, s.bufStart = s.buf[:0], s.total
			return nil
		}
		start := s.hops // unit hop: hop m starts at sample m
		if s.bufStart+len(s.buf) < start+k {
			// Keep only the K-1 overlap tail the next hop reads, then
			// take at most K more samples: the buffer stays under 2K
			// samples whatever the chunk size.
			s.buf, s.bufStart = scf.TrimBefore(s.buf, s.bufStart, start)
			if len(samples) == 0 {
				return nil
			}
			n := min(len(samples), k)
			s.buf = append(s.buf, samples[:n]...)
			samples = samples[n:]
			continue
		}
		block := s.buf[start-s.bufStart : start-s.bufStart+k]
		if s.win != nil {
			if s.winbuf == nil {
				s.winbuf = make([]complex128, k)
			}
			if err := fft.ApplyWindowInto(s.winbuf, block, s.win); err != nil {
				return err
			}
			block = s.winbuf
		}
		if err := s.plan.Forward(s.spec, block); err != nil {
			return err
		}
		xc := cmplx.Conj(s.buf[start-s.bufStart+centre])
		foldHop(s.fold[(start&mask)*nn:], s.spec, s.roots, s.needed, start, xc)
		s.hops++
		if s.hops >= k && s.hops&(s.hops-1) == 0 {
			copy(s.ck, s.fold)
		}
	}
}

// Snapshot implements scf.Accumulator.
func (s *sscaAccumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	n := s.stripLen()
	if n == 0 {
		need := 2*s.p.K - 1
		if s.nFixed != 0 {
			need = s.nFixed + s.p.K - 1
		}
		return nil, nil, needSamples("SSCA", need, s.total)
	}
	// stripLen is the last power of two >= K the hop count reached (or
	// the fixed N, itself one), so the checkpoint holds exactly its fold.
	outBuf := fft.GetScratch(len(s.ck))
	defer fft.PutScratch(outBuf)
	return sscaSurface(s.p, s.rowAlphas, s.needed, s.ck, *outBuf, n, 1)
}

// Reset implements scf.Accumulator.
func (s *sscaAccumulator) Reset() {
	clear(s.fold)
	s.hops = 0
	s.buf = s.buf[:0]
	s.bufStart = 0
	s.total = 0
}
