package fam

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// boundedAccumulator builds e's accumulator bounded to an n-sample window.
func boundedAccumulator(t *testing.T, e scf.StreamingEstimator, n int) scf.Accumulator {
	t.Helper()
	acc, err := e.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	acc.(scf.WindowBounder).BoundWindow(n)
	return acc
}

// prefixCuts returns the snapshot points of a window test: the shortest
// input the estimator accepts, a partial window (the flush a channel
// removal makes) and the full window, ascending and without repeats.
func prefixCuts(minimum, window int) []int {
	cuts := []int{minimum}
	if mid := window/2 + 3; mid > minimum && mid < window {
		cuts = append(cuts, mid)
	}
	if window > minimum {
		cuts = append(cuts, window)
	}
	return cuts
}

// TestFAMAccumulatorWindowMatchesBatch: an accumulator bounded to a
// window folds only the hops the window's snapshot smooths, yet every
// snapshot within the window — partial or full — is bit-identical to
// batch Estimate over the same prefix, across window lengths at and
// between power-of-two hop counts, full and pruned planes, and
// chunkings. Pushing past the window fails, and Reset keeps the bound.
func TestFAMAccumulatorWindowMatchesBatch(t *testing.T) {
	const k, hop = 256, 64
	planes := []struct {
		name   string
		alphas []int
	}{{"full", nil}, {"pruned", []int{0, 3, 16, 32}}}
	for _, window := range []int{k + hop, 8192, 10000, 16384} {
		x := streamBand(t, window+1, 31)
		y := streamBand(t, window, 32)
		for _, plane := range planes {
			e := FAM{Params: scf.Params{K: k, M: 64, AlphaCandidates: plane.alphas}}
			for _, chunk := range []int{1, 7, 2048, window} {
				acc := boundedAccumulator(t, e, window)
				done := 0
				for _, cut := range prefixCuts(k+hop, window) {
					pushChunks(t, acc, x[done:cut], []int{chunk})
					done = cut
					got, gotStats, err := acc.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats, err := e.Estimate(x[:cut])
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, got, want, plane.name+" prefix snapshot")
					requireSameStats(t, gotStats, wantStats)
				}
				fa := acc.(*famAccumulator)
				if fa.hops != famSmoothing(fa.p, window) || len(fa.buf) != 0 {
					t.Fatalf("window %d: folded %d hops and kept %d samples, want %d hops and none",
						window, fa.hops, len(fa.buf), famSmoothing(fa.p, window))
				}
				if cap(fa.buf) > 4*k {
					t.Fatalf("window %d chunk %d: buffer grew to %d samples", window, chunk, cap(fa.buf))
				}
				if err := acc.Push(x[window:]); err == nil || !strings.Contains(err.Error(), "bounded") {
					t.Fatalf("window %d: push past the bound returned %v, want a bound error", window, err)
				}
				acc.Reset()
				pushChunks(t, acc, y, []int{chunk})
				got, _, err := acc.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := e.Estimate(y)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, got, want, plane.name+" post-reset")
				if err := acc.Push(x[:1]); err == nil {
					t.Fatalf("window %d: Reset dropped the bound", window)
				}
			}
		}
	}
}

// TestBoundedAccumulatorsMatchBatch: the SSCA and both Q15 backends honour
// the same window bound — strips stop at the window's strip length,
// banked Q15 hops at its smoothing prefix — with snapshots bit-identical
// to the batch estimators for each window, full or partial.
func TestBoundedAccumulatorsMatchBatch(t *testing.T) {
	const peak = 1.5
	t.Run("ssca", func(t *testing.T) {
		const k = 64
		e := SSCA{Params: scf.Params{K: k, M: 16, Window: fft.Hann}}
		for _, window := range []int{2*k - 1, 8192, 10000, 16384} {
			x := streamBand(t, window, 33)
			for _, chunk := range []int{7, 2048, window} {
				acc := boundedAccumulator(t, e, window)
				done := 0
				for _, cut := range prefixCuts(2*k-1, window) {
					pushChunks(t, acc, x[done:cut], []int{chunk})
					done = cut
					got, gotStats, err := acc.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats, err := e.Estimate(x[:cut])
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, got, want, "ssca prefix snapshot")
					requireSameStats(t, gotStats, wantStats)
				}
				sa := acc.(*sscaAccumulator)
				if n := sscaStripLen(k, 0, window-k+1); sa.hops != n || len(sa.buf) != 0 {
					t.Fatalf("window %d: folded %d strip positions and kept %d samples; want %d and none",
						window, sa.hops, len(sa.buf), n)
				}
			}
		}
	})
	q15 := []struct {
		name    string
		e       scf.StreamingEstimator
		minimum int
		batch   func([]complex128) (*scf.QSurface, error)
	}{
		{"fam-q15", FAMQ15{Params: scf.Params{K: 256, M: 64}, InputPeak: peak}, 256 + 64,
			func(x []complex128) (*scf.QSurface, error) {
				s, _, err := FAMQ15{Params: scf.Params{K: 256, M: 64}, InputPeak: peak}.EstimateQ15(x)
				return s, err
			}},
		{"ssca-q15", SSCAQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: peak}, 2*64 - 1,
			func(x []complex128) (*scf.QSurface, error) {
				s, _, err := SSCAQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: peak}.EstimateQ15(x)
				return s, err
			}},
	}
	for _, tc := range q15 {
		t.Run(tc.name, func(t *testing.T) {
			for _, window := range []int{tc.minimum, 8192, 10000, 16384} {
				x := q15TestBand(t, window, 34)
				for _, chunk := range []int{7, window} {
					acc := boundedAccumulator(t, tc.e, window)
					done := 0
					for _, cut := range prefixCuts(tc.minimum, window) {
						pushChunks(t, acc, x[done:cut], []int{chunk})
						done = cut
						want, err := tc.batch(x[:cut])
						if err != nil {
							t.Fatal(err)
						}
						if ok, diff := want.Equal(q15SnapshotQ15(t, acc)); !ok {
							t.Fatalf("window %d chunk %d prefix %d: snapshot differs from batch: %s",
								window, chunk, cut, diff)
						}
					}
				}
			}
		})
	}
}

// TestWindowBoundEdges: every bounded accumulator rejects a push past its
// window without changing state and keeps its bound through Reset, while
// a window too short for a first snapshot leaves it unbounded — the
// stream engine integrates past such a window's boundary.
func TestWindowBoundEdges(t *testing.T) {
	p := scf.Params{K: 64, M: 16}
	for _, e := range []scf.StreamingEstimator{
		FAM{Params: p},
		SSCA{Params: p},
		FAMQ15{Params: p, InputPeak: 1.5},
		SSCAQ15{Params: p, InputPeak: 1.5},
	} {
		const window = 1000
		x := streamBand(t, 4*window, 35)
		acc := boundedAccumulator(t, e, window)
		pushChunks(t, acc, x[:window-10], []int{300})
		if err := acc.Push(x[window-10 : window+1]); err == nil {
			t.Fatalf("%s: push past the window succeeded", acc.Name())
		}
		if acc.Samples() != window-10 {
			t.Fatalf("%s: rejected push moved Samples to %d", acc.Name(), acc.Samples())
		}
		acc.Reset()
		pushChunks(t, acc, x[:window], []int{window})
		if err := acc.Push(x[:1]); err == nil {
			t.Fatalf("%s: bound lost on Reset", acc.Name())
		}

		short := boundedAccumulator(t, e, 64)
		pushChunks(t, short, x, []int{500})
		if !short.Ready() {
			t.Fatalf("%s: not Ready after %d samples under an unsatisfiable bound", short.Name(), len(x))
		}
	}
}

// TestFAMAccumulatorPushAllocs: a steady-state 2048-sample Push allocates
// nothing, with and without a window bound.
func TestFAMAccumulatorPushAllocs(t *testing.T) {
	const window, chunk = 16384, 2048
	x := streamBand(t, chunk, 36)
	for _, bounded := range []bool{false, true} {
		acc, err := FAM{Params: scf.Params{K: 256, M: 64, Window: fft.Hamming}}.NewAccumulator()
		if err != nil {
			t.Fatal(err)
		}
		if bounded {
			acc.(scf.WindowBounder).BoundWindow(window)
		}
		push := func() {
			if bounded && acc.Samples()+chunk > window {
				acc.Reset()
			}
			if err := acc.Push(x); err != nil {
				t.Fatal(err)
			}
		}
		push() // first push sizes the pending-tail buffer and window scratch
		if a := testing.AllocsPerRun(40, push); a != 0 {
			t.Fatalf("bounded=%v: Push allocates %.1f times per 2048-sample chunk", bounded, a)
		}
	}
}

// TestSSCAAccumulatorPushAllocs: a steady-state 2048-sample Push of the
// streaming SSCA allocates nothing, cumulative or bounded to a window.
func TestSSCAAccumulatorPushAllocs(t *testing.T) {
	const window, chunk = 16384, 2048
	x := streamBand(t, chunk, 37)
	for _, bounded := range []bool{false, true} {
		acc, err := SSCA{Params: scf.Params{K: 256, M: 64, Window: fft.Hamming}}.NewAccumulator()
		if err != nil {
			t.Fatal(err)
		}
		if bounded {
			acc.(scf.WindowBounder).BoundWindow(window)
		}
		push := func() {
			if bounded && acc.Samples()+chunk > window {
				acc.Reset()
			}
			if err := acc.Push(x); err != nil {
				t.Fatal(err)
			}
		}
		push() // first push sizes the pending-tail buffer and window scratch
		if a := testing.AllocsPerRun(20, push); a != 0 {
			t.Fatalf("bounded=%v: Push allocates %.1f times per 2048-sample chunk", bounded, a)
		}
	}
}

// TestSSCAAccumulatorCumulativeFlat: a cumulative streaming SSCA keeps a
// fixed-size state however long the stream — pushing 64K+ samples
// allocates next to nothing, where per-sample product strips would grow
// by about a kilobyte a sample at this geometry — and its snapshot at
// every power-of-two strip length equals batch Estimate over that prefix.
func TestSSCAAccumulatorCumulativeFlat(t *testing.T) {
	const k, last = 64, 1 << 16
	e := SSCA{Params: scf.Params{K: k, M: 16}}
	x := streamBand(t, last+k-1, 38)
	acc, err := e.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	var pushed uint64
	var ms runtime.MemStats
	done := 0
	for n := k; n <= last; n *= 2 {
		cut := n + k - 1
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		pushChunks(t, acc, x[done:cut], []int{1000})
		runtime.ReadMemStats(&ms)
		pushed += ms.TotalAlloc - before
		done = cut
		got, gotStats, err := acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := e.Estimate(x[:cut])
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, fmt.Sprintf("cumulative snapshot at N=%d", n))
		requireSameStats(t, gotStats, wantStats)
	}
	sa := acc.(*sscaAccumulator)
	if cap(sa.buf) > 4*k {
		t.Fatalf("pending buffer grew to %d samples", cap(sa.buf))
	}
	if pushed > 256<<10 {
		t.Fatalf("pushing %d samples allocated %d bytes; the state should stay flat", len(x), pushed)
	}
}
